#include "io/autograph_format.h"

#include <fstream>
#include <functional>
#include <unordered_set>

#include "io/record.h"
#include "util/string_util.h"

namespace ahg {
namespace {

Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!out->is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  return Status::OK();
}

Status OpenForRead(const std::string& path, std::ifstream* in) {
  in->open(path);
  if (!in->is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return Status::OK();
}

// Every field of a dataset file is parsed with ParseNumber, so a malformed
// or hostile file yields InvalidArgument naming the file and line instead
// of an exception.
Status LineError(const std::string& path, int line, const std::string& what) {
  return Status::InvalidArgument(path + ":" + std::to_string(line) + ": " +
                                 what);
}

// Calls row(fields, line) for every non-blank line of `path`, split on
// `delim` with each field trimmed; stops at the first error.
Status ForEachRow(
    const std::string& path, char delim,
    const std::function<Status(const std::vector<std::string>&, int)>& row) {
  std::ifstream in;
  Status s = OpenForRead(path, &in);
  if (!s.ok()) return s;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (StrTrim(line).empty()) continue;
    std::vector<std::string> fields = StrSplit(line, delim);
    for (std::string& field : fields) field = StrTrim(field);
    if (s = row(fields, line_no); !s.ok()) return s;
  }
  return Status::OK();
}

// One node index in [0, num_nodes) per line.
StatusOr<std::vector<int>> ReadIndexFile(const std::string& path,
                                         int num_nodes) {
  std::vector<int> indices;
  Status s = ForEachRow(path, '\t', [&](const auto& fields, int line) {
    int node = 0;
    if (fields.size() != 1 || !ParseNumber(fields[0], &node)) {
      return LineError(path, line, "expected one node index");
    }
    if (node < 0 || node >= num_nodes) {
      return LineError(path, line, "node index outside [0, " +
                                       std::to_string(num_nodes) + ")");
    }
    indices.push_back(node);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return indices;
}

}  // namespace

Status WriteAutographDataset(const std::string& dir, const Graph& graph,
                             const std::vector<int>& train_nodes,
                             const std::vector<int>& test_nodes,
                             double time_budget_seconds) {
  Status s = EnsureDir(dir);
  if (!s.ok()) return s;

  {
    std::ofstream out;
    if (s = OpenForWrite(dir + "/train_node_id.txt", &out); !s.ok()) return s;
    for (int node : train_nodes) out << node << "\n";
  }
  {
    std::ofstream out;
    if (s = OpenForWrite(dir + "/test_node_id.txt", &out); !s.ok()) return s;
    for (int node : test_nodes) out << node << "\n";
  }
  {
    std::ofstream out;
    if (s = OpenForWrite(dir + "/edge.tsv", &out); !s.ok()) return s;
    for (const Edge& e : graph.edges()) {
      out << e.src << "\t" << e.dst << "\t" << e.weight << "\n";
    }
  }
  {
    std::ofstream out;
    if (s = OpenForWrite(dir + "/feature.tsv", &out); !s.ok()) return s;
    for (int i = 0; i < graph.num_nodes(); ++i) {
      out << i;
      for (int c = 0; c < graph.feature_dim(); ++c) {
        out << "\t" << graph.features()(i, c);
      }
      out << "\n";
    }
  }
  {
    std::unordered_set<int> test_set(test_nodes.begin(), test_nodes.end());
    std::ofstream out;
    if (s = OpenForWrite(dir + "/train_label.tsv", &out); !s.ok()) return s;
    for (int node : train_nodes) {
      if (test_set.count(node) > 0) continue;
      const int label = graph.labels()[node];
      if (label >= 0) out << node << "\t" << label << "\n";
    }
  }
  {
    std::ofstream out;
    if (s = OpenForWrite(dir + "/config.yml", &out); !s.ok()) return s;
    out << "time_budget: " << time_budget_seconds << "\n";
    out << "n_class: " << graph.num_classes() << "\n";
    out << "directed: " << (graph.directed() ? 1 : 0) << "\n";
  }
  return Status::OK();
}

StatusOr<AutographDataset> ReadAutographDataset(const std::string& dir) {
  AutographDataset ds;

  int n_class = 0;
  const std::string config_path = dir + "/config.yml";
  Status s = ForEachRow(config_path, ':', [&](const auto& parts, int line) {
    if (parts.size() != 2) return Status::OK();
    const std::string& key = parts[0];
    bool parsed = true;
    if (key == "time_budget") {
      parsed = ParseNumber(parts[1], &ds.time_budget_seconds);
    } else if (key == "n_class") {
      parsed = ParseNumber(parts[1], &n_class);
    } else if (key == "directed") {
      int directed = 0;
      parsed = ParseNumber(parts[1], &directed);
      ds.directed = directed != 0;
    }
    return parsed ? Status::OK() : LineError(config_path, line, "bad " + key);
  });
  if (!s.ok()) return s;
  if (n_class <= 0) {
    return Status::InvalidArgument("config.yml missing n_class");
  }

  // Features determine the node count.
  std::vector<std::vector<double>> feature_rows;
  const std::string feature_path = dir + "/feature.tsv";
  s = ForEachRow(feature_path, '\t', [&](const auto& parts, int line) {
    if (parts.size() < 2) return LineError(feature_path, line, "no features");
    int idx = 0;
    if (!ParseNumber(parts[0], &idx) ||
        idx != static_cast<int>(feature_rows.size())) {
      return LineError(feature_path, line,
                       "rows must be dense and ordered by node index");
    }
    if (!feature_rows.empty() && parts.size() != feature_rows[0].size() + 1) {
      return LineError(feature_path, line,
                       "expected " + std::to_string(feature_rows[0].size()) +
                           " features");
    }
    std::vector<double> row(parts.size() - 1);
    for (size_t i = 1; i < parts.size(); ++i) {
      if (!ParseNumber(parts[i], &row[i - 1])) {
        return LineError(feature_path, line, "bad feature value");
      }
    }
    feature_rows.push_back(std::move(row));
    return Status::OK();
  });
  if (!s.ok()) return s;
  if (feature_rows.empty()) {
    return Status::InvalidArgument("feature.tsv is empty");
  }
  const int n = static_cast<int>(feature_rows.size());

  auto train = ReadIndexFile(dir + "/train_node_id.txt", n);
  if (!train.ok()) return train.status();
  ds.train_nodes = std::move(train.value());
  auto test = ReadIndexFile(dir + "/test_node_id.txt", n);
  if (!test.ok()) return test.status();
  ds.test_nodes = std::move(test.value());

  std::vector<Edge> edges;
  const std::string edge_path = dir + "/edge.tsv";
  s = ForEachRow(edge_path, '\t', [&](const auto& parts, int line) {
    Edge e;
    if (parts.size() != 3 || !ParseNumber(parts[0], &e.src) ||
        !ParseNumber(parts[1], &e.dst) || !ParseNumber(parts[2], &e.weight)) {
      return LineError(edge_path, line, "expected src, dst, weight");
    }
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
      return LineError(edge_path, line, "edge endpoint out of range");
    }
    edges.push_back(e);
    return Status::OK();
  });
  if (!s.ok()) return s;

  std::vector<int> labels(n, -1);
  const std::string label_path = dir + "/train_label.tsv";
  s = ForEachRow(label_path, '\t', [&](const auto& parts, int line) {
    int node = 0;
    int label = 0;
    if (parts.size() != 2 || !ParseNumber(parts[0], &node) ||
        !ParseNumber(parts[1], &label)) {
      return LineError(label_path, line, "expected node, label");
    }
    if (node < 0 || node >= n || label < 0 || label >= n_class) {
      return LineError(label_path, line, "label row out of range");
    }
    labels[node] = label;
    return Status::OK();
  });
  if (!s.ok()) return s;

  StatusOr<Graph> graph =
      Graph::CreateChecked(n, std::move(edges), ds.directed,
                           Matrix::FromRows(feature_rows), std::move(labels),
                           n_class);
  if (!graph.ok()) return graph.status();
  ds.graph = std::move(graph).value();
  return ds;
}

}  // namespace ahg

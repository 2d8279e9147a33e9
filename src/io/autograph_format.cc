#include "io/autograph_format.h"

#include <fstream>
#include <sstream>
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

StatusOr<std::vector<int>> ReadIndexFile(const std::string& path) {
  std::ifstream in;
  Status s = OpenForRead(path, &in);
  if (!s.ok()) return s;
  std::vector<int> indices;
  std::string line;
  while (std::getline(in, line)) {
    line = StrTrim(line);
    if (line.empty()) continue;
    indices.push_back(std::stoi(line));
  }
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

  auto train = ReadIndexFile(dir + "/train_node_id.txt");
  if (!train.ok()) return train.status();
  ds.train_nodes = std::move(train.value());
  auto test = ReadIndexFile(dir + "/test_node_id.txt");
  if (!test.ok()) return test.status();
  ds.test_nodes = std::move(test.value());

  int n_class = 0;
  {
    std::ifstream in;
    Status s = OpenForRead(dir + "/config.yml", &in);
    if (!s.ok()) return s;
    std::string line;
    while (std::getline(in, line)) {
      const auto parts = StrSplit(line, ':');
      if (parts.size() != 2) continue;
      const std::string key = StrTrim(parts[0]);
      const std::string value = StrTrim(parts[1]);
      if (key == "time_budget") ds.time_budget_seconds = std::stod(value);
      if (key == "n_class") n_class = std::stoi(value);
      if (key == "directed") ds.directed = std::stoi(value) != 0;
    }
    if (n_class <= 0) {
      return Status::InvalidArgument("config.yml missing n_class");
    }
  }

  // Features determine the node count.
  std::vector<std::vector<double>> feature_rows;
  {
    std::ifstream in;
    Status s = OpenForRead(dir + "/feature.tsv", &in);
    if (!s.ok()) return s;
    std::string line;
    while (std::getline(in, line)) {
      if (StrTrim(line).empty()) continue;
      const auto parts = StrSplit(line, '\t');
      if (parts.size() < 2) {
        return Status::InvalidArgument("malformed feature row: " + line);
      }
      const int idx = std::stoi(parts[0]);
      if (idx != static_cast<int>(feature_rows.size())) {
        return Status::InvalidArgument(
            "feature.tsv rows must be dense and ordered");
      }
      std::vector<double> row;
      row.reserve(parts.size() - 1);
      for (size_t i = 1; i < parts.size(); ++i) {
        row.push_back(std::stod(parts[i]));
      }
      feature_rows.push_back(std::move(row));
    }
    if (feature_rows.empty()) {
      return Status::InvalidArgument("feature.tsv is empty");
    }
  }
  const int n = static_cast<int>(feature_rows.size());

  std::vector<Edge> edges;
  {
    std::ifstream in;
    Status s = OpenForRead(dir + "/edge.tsv", &in);
    if (!s.ok()) return s;
    std::string line;
    while (std::getline(in, line)) {
      if (StrTrim(line).empty()) continue;
      const auto parts = StrSplit(line, '\t');
      if (parts.size() != 3) {
        return Status::InvalidArgument("malformed edge row: " + line);
      }
      Edge e;
      e.src = std::stoi(parts[0]);
      e.dst = std::stoi(parts[1]);
      e.weight = std::stod(parts[2]);
      if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
        return Status::InvalidArgument("edge endpoint out of range: " + line);
      }
      edges.push_back(e);
    }
  }

  std::vector<int> labels(n, -1);
  {
    std::ifstream in;
    Status s = OpenForRead(dir + "/train_label.tsv", &in);
    if (!s.ok()) return s;
    std::string line;
    while (std::getline(in, line)) {
      if (StrTrim(line).empty()) continue;
      const auto parts = StrSplit(line, '\t');
      if (parts.size() != 2) {
        return Status::InvalidArgument("malformed label row: " + line);
      }
      const int node = std::stoi(parts[0]);
      const int label = std::stoi(parts[1]);
      if (node < 0 || node >= n || label < 0 || label >= n_class) {
        return Status::InvalidArgument("label row out of range: " + line);
      }
      labels[node] = label;
    }
  }

  StatusOr<Graph> graph =
      Graph::CreateChecked(n, std::move(edges), ds.directed,
                           Matrix::FromRows(feature_rows), std::move(labels),
                           n_class);
  if (!graph.ok()) return graph.status();
  ds.graph = std::move(graph).value();
  return ds;
}

}  // namespace ahg

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <functional>

#include "core/trained_ensemble.h"
#include "graph/reorder.h"
#include "graph/split.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "io/autograph_format.h"
#include "io/model_store.h"
#include "jobs/checkpoint.h"
#include "jobs/job_store.h"
#include "serve/model_registry.h"
#include "tensor/alloc_tracker.h"

namespace ahg {
namespace {

std::string TempDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/" + name;
  return dir;
}

TEST(AutographFormatTest, RoundTripPreservesGraph) {
  SyntheticConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_classes = 3;
  cfg.feature_dim = 4;
  cfg.avg_degree = 3.0;
  cfg.weighted = true;
  cfg.seed = 1;
  Graph g = GenerateSbmGraph(cfg);
  Rng rng(2);
  DataSplit split = RandomSplit(g, 0.5, 0.0, &rng);

  const std::string dir = TempDir("autograph_roundtrip");
  ASSERT_TRUE(WriteAutographDataset(dir, g, split.train, split.test, 300.0)
                  .ok());
  auto read = ReadAutographDataset(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const AutographDataset& ds = read.value();

  EXPECT_EQ(ds.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(ds.graph.num_edges(), g.num_edges());
  EXPECT_EQ(ds.graph.num_classes(), g.num_classes());
  EXPECT_EQ(ds.time_budget_seconds, 300.0);
  EXPECT_EQ(ds.train_nodes, split.train);
  EXPECT_EQ(ds.test_nodes, split.test);
  // Train labels survive; test labels are withheld.
  for (int node : split.train) {
    EXPECT_EQ(ds.graph.labels()[node], g.labels()[node]);
  }
  for (int node : split.test) {
    EXPECT_EQ(ds.graph.labels()[node], -1);
  }
  // Features match to printed precision.
  EXPECT_TRUE(AllClose(ds.graph.features(), g.features(), 1e-4));
}

TEST(AutographFormatTest, MissingDirectoryIsNotFound) {
  auto read = ReadAutographDataset("/definitely/not/here");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kNotFound);
}

TEST(AutographFormatTest, MalformedEdgeRowRejected) {
  const std::string dir = TempDir("autograph_malformed");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/edge.tsv");
  bad << "0\t1\n";  // missing weight column
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

TEST(AutographFormatTest, OutOfRangeEdgeRejected) {
  const std::string dir = TempDir("autograph_range");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/edge.tsv");
  bad << "0\t9\t1.0\n";
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

TEST(AutographFormatTest, MissingConfigKeyRejected) {
  const std::string dir = TempDir("autograph_noclass");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  std::ofstream bad(dir + "/config.yml");
  bad << "time_budget: 60\n";  // n_class missing
  bad.close();
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
}

// --- model_store framing hardening ---------------------------------------

std::string WriteReferenceModel(const std::string& name) {
  ModelConfig cfg;
  cfg.family = ModelFamily::kGcn;
  cfg.in_dim = 3;
  cfg.hidden_dim = 4;
  std::vector<Matrix> params;
  params.push_back(Matrix::Constant(3, 4, 0.5));
  params.push_back(Matrix::Constant(1, 4, -0.25));
  const std::string path = TempDir(name);
  EXPECT_TRUE(SaveModel(path, cfg, params).ok());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Byte offset of the first tensor's rows field in the AHGM layout: magic(4)
// + version(4) + 4 u32 config fields + dropout f64 + heads u32 + 4 f64
// knobs + poly u32 + seed u64 + tensor count u32.
constexpr size_t kFirstTensorHeaderOffset =
    4 + 4 + 16 + 8 + 4 + 32 + 4 + 8 + 4;

TEST(ModelStoreTest, TruncatedFileAtEveryStageIsRejectedNotCrashed) {
  const std::string path = WriteReferenceModel("model_store_trunc.ahgm");
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), kFirstTensorHeaderOffset);
  // Cut inside the magic, the header, the tensor header, and the payload.
  for (size_t cut : std::vector<size_t>{2, 10, 40, kFirstTensorHeaderOffset,
                                        kFirstTensorHeaderOffset + 4,
                                        kFirstTensorHeaderOffset + 8 + 17,
                                        bytes.size() - 1}) {
    const std::string cut_path = TempDir("model_store_cut.ahgm");
    WriteRaw(cut_path, bytes.substr(0, cut));
    auto loaded = LoadModel(cut_path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(ModelStoreTest, HugeTensorDimsRejectedWithoutAllocation) {
  const std::string path = WriteReferenceModel("model_store_bomb.ahgm");
  std::string bytes = ReadAll(path);
  // Claim a ~146 exabyte tensor (0xFFFFFFFF x 0xFFFFFFFF doubles). The old
  // loader multiplied in int and tried to allocate; now the caps reject it
  // before any allocation.
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset, &huge, sizeof(huge));
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset + 4, &huge,
              sizeof(huge));
  const std::string bomb = TempDir("model_store_bomb2.ahgm");
  WriteRaw(bomb, bytes);
  auto loaded = LoadModel(bomb);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, PlausibleDimsBeyondFileSizeRejectedBeforeAllocation) {
  const std::string path = WriteReferenceModel("model_store_lie.ahgm");
  std::string bytes = ReadAll(path);
  // Claim 4000x4000 (128 MB payload) in a file of a few hundred bytes:
  // within the dimension caps, but the file cannot hold it.
  const uint32_t rows = 4000, cols = 4000;
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset, &rows, sizeof(rows));
  std::memcpy(bytes.data() + kFirstTensorHeaderOffset + 4, &cols,
              sizeof(cols));
  const std::string lie = TempDir("model_store_lie2.ahgm");
  WriteRaw(lie, bytes);
  auto loaded = LoadModel(lie);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, RoundTripStillWorksAfterHardening) {
  const std::string path = WriteReferenceModel("model_store_ok.ahgm");
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().params.size(), 2u);
  EXPECT_EQ(loaded.value().params[0].rows(), 3);
  EXPECT_EQ(loaded.value().params[0].cols(), 4);
  EXPECT_DOUBLE_EQ(loaded.value().params[1](0, 0), -0.25);
}

TEST(AutographFormatTest, DirectedFlagRoundTrips) {
  const std::string dir = TempDir("autograph_directed");
  Graph g = Graph::Create(3, {{0, 1, 1.0}, {1, 2, 1.0}}, /*directed=*/true,
                          Matrix::Constant(3, 2, 1.0), {0, 1, 0}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0, 1}, {2}, 60.0).ok());
  auto read = ReadAutographDataset(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().graph.directed());
}

constexpr char kPinModel[] =
    "4148474d0100000000000000020000000200000001000000000000000000e03f"
    "040000009a9999999999c93f9a9999999999b93f9a9999999999b93f00000000"
    "0000e03f03000000070000000000000004000000020000000200000000000000"
    "0000c03f000000000000c03f000000000000c03f000000000000c03f01000000"
    "02000000000000000000d03f000000000000d03f020000000200000000000000"
    "0000e03f000000000000e03f000000000000e03f000000000000e03f01000000"
    "02000000000000000000d0bf000000000000d0bf";
constexpr char kPinSpec[] =
    "4148474a0100000001000000030000000000000070696e010000000000000064"
    "020000000100000000000000030000000000000047434e000000000200000002"
    "00000001000000000000000000e03f040000009a9999999999c93f9a99999999"
    "99b93f9a9999999999b93f000000000000e03f03000000070000000000000003"
    "00000003000000333333333333d33f02000000000000000000e03f3333333333"
    "33e33f9a9999999999c93f01000000780000000f0000007b14ae47e17a843ffc"
    "a9f1d24d62403fcdccccccccccec3f0300000001000000000000000000000000"
    "0000000000000001000000613255302aa9333f14000000050000000400000000"
    "00000000000840000000000040bf400000000000001440070000000000000000"
    "0000000000000001000000";
constexpr char kPinCheckpoint[] =
    "4148474a01000000020000000100000000000000000000000300000000000000"
    "47434e00000000020000000200000001000000000000000000e03f040000009a"
    "9999999999c93f9a9999999999b93f9a9999999999b93f000000000000e03f03"
    "0000000700000000000000000000000200000002000000010000000000000000"
    "00e03f040000009a9999999999c93f9a9999999999b93f9a9999999999b93f00"
    "0000000000e03f030000000700000000000000000000000000e83f0000000000"
    "00c03f000000000000f83f010000000100000000000000030000000000000047"
    "434e00000000020000000200000001000000000000000000e03f040000009a99"
    "99999999c93f9a9999999999b93f9a9999999999b93f000000000000e03f0300"
    "0000070000000000000001000000000000000000000001000000000000000000"
    "e03f010000000200000001000000000000000100000001000000000000000000"
    "d03f01000000000000000100000002000000000000000000e03f000000000000"
    "e03f010000000000000001000000010000000000000000000000010000000000"
    "00000100000001000000000000000000f03f03000000000000007b14ae47e17a"
    "843f000000000000000000000000000000000000000000000000000000000000"
    "0000010000000000000000000000000000000000000000000000040000000000"
    "000001000000000000000000e03f000000000000e43f01000000020000000000"
    "0000000000000000000000000000000000000000000001000000010000000100"
    "0000000000000200000000000000010000000200000001000000000000000000"
    "00000000f03f0100000000000000000000000100000000000000010000000100"
    "0000000000000000004000000000";
constexpr char kPinTaskSpec[] =
    "4148474a0100000003000000030000000000000070696e010000000000000064"
    "010000000100000000000000030000000000000047434e000000000200000002"
    "00000001000000000000000000e03f040000009a9999999999c93f9a99999999"
    "99b93f9a9999999999b93f000000000000e03f03000000070000000000000078"
    "0000000f0000007b14ae47e17a843ffca9f1d24d62403fcdccccccccccec3f03"
    "00000001000000000000000000000000000000000000000700000000000000";
constexpr char kPinTaskCheckpoint[] =
    "4148474a0100000004000000010000000000000000000000000000000000e03f"
    "0000000000000000020000000200000001000000000000000000e03f04000000"
    "9a9999999999c93f9a9999999999b93f9a9999999999b93f000000000000e03f"
    "0300000007000000000000000100000000000000010000000200000000000000"
    "0000e03f000000000000e03f01000000";

// --- format pin ------------------------------------------------------------
//
// Exact bytes of small files in every persisted format, as written before the
// formats moved onto one record codec. A byte that changes here is a wire
// format change and needs a version bump, not a new literal.

ModelConfig PinConfig() {
  ModelConfig cfg;
  cfg.family = ModelFamily::kGcn;
  cfg.in_dim = 2;
  cfg.hidden_dim = 2;
  cfg.num_layers = 1;
  cfg.seed = 7;
  return cfg;
}

// Zoo weights of PinConfig() set to constants, then a 2-class head.
std::vector<Matrix> PinParams() {
  std::vector<Matrix> params;
  const std::unique_ptr<GnnModel> model = BuildModel(PinConfig());
  for (const Var& v : model->params()->params()) {
    params.push_back(Matrix::Constant(v->value.rows(), v->value.cols(),
                                      0.125 * (params.size() + 1)));
  }
  params.push_back(Matrix::Constant(2, 2, 0.5));
  params.push_back(Matrix::Constant(1, 2, -0.25));
  return params;
}

jobs::SearchJobSpec PinSpec() {
  jobs::SearchJobSpec spec;
  spec.job_id = "pin";
  spec.dataset = "d";
  spec.candidates = {{"GCN", PinConfig()}};
  spec.seed = 7;
  spec.publish_version = 1;
  return spec;
}

jobs::SearchJobCheckpoint PinCheckpoint() {
  jobs::SearchJobCheckpoint ckpt;
  ckpt.proxy_scores[0] = {"GCN", PinConfig(), PinConfig(), 0.75, 0.125, 1.5};
  ckpt.pool_done = true;
  ckpt.pool = {{"GCN", PinConfig()}};
  ckpt.adaptive_probes[{0, 1}] = 0.5;
  ckpt.has_gradient_state = true;
  GradientSearchState& g = ckpt.gradient_state;
  g.epoch = 2;
  g.weight_values = {Matrix::Constant(1, 1, 0.25)};
  g.arch_values = {Matrix::Constant(1, 2, 0.5)};
  g.weight_opt.m = {Matrix::Constant(1, 1, 0.0)};
  g.weight_opt.v = {Matrix::Constant(1, 1, 1.0)};
  g.weight_opt.step = 3;
  g.weight_opt.learning_rate = 0.01;
  g.dropout_rng.s[0] = 1;
  g.dropout_rng.s[3] = 4;
  g.dropout_rng.has_spare_normal = true;
  g.dropout_rng.spare_normal = 0.5;
  g.best_val = 0.625;
  g.best_beta_raw = Matrix::Constant(1, 2, 0.0);
  g.epochs_since_best = 1;
  ckpt.search_done = true;
  ckpt.layers = {{1, 2}};
  ckpt.beta = {1.0};
  ckpt.member_params[0] = {Matrix::Constant(1, 1, 2.0)};
  return ckpt;
}

jobs::TaskJobSpec PinTaskSpec() {
  jobs::TaskJobSpec spec;
  spec.job_id = "pin";
  spec.dataset = "d";
  spec.kind = jobs::TaskKind::kGraphClassification;
  spec.candidates = {{"GCN", PinConfig()}};
  spec.seed = 7;
  return spec;
}

jobs::TaskJobCheckpoint PinTaskCheckpoint() {
  jobs::TaskJobCheckpoint ckpt;
  ckpt.scores[0] = 0.5;
  ckpt.best_index = 0;
  ckpt.best_config = PinConfig();
  ckpt.best_params = {Matrix::Constant(1, 2, 0.5)};
  ckpt.done = true;
  return ckpt;
}

jobs::JobState PinState() {
  jobs::JobState state;
  state.status = jobs::JobStatus::kRunning;
  state.attempts = 2;
  state.checkpoints_written = 5;
  state.message = "a\tb";
  return state;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempDir(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FormatPinTest, EveryFormatKeepsItsBytes) {
  const std::string dir = FreshDir("format_pin");
  ASSERT_TRUE(SaveModel(dir + "/m.ahgm", PinConfig(), PinParams()).ok());
  ASSERT_TRUE(jobs::SaveSpec(dir + "/spec.bin", PinSpec()).ok());
  ASSERT_TRUE(
      jobs::SaveCheckpoint(dir + "/checkpoint.bin", PinCheckpoint()).ok());
  ASSERT_TRUE(jobs::SaveTaskSpec(dir + "/task_spec.bin", PinTaskSpec()).ok());
  ASSERT_TRUE(jobs::SaveTaskCheckpoint(dir + "/task_checkpoint.bin",
                                       PinTaskCheckpoint())
                  .ok());
  jobs::JobStore store(dir + "/store");
  ASSERT_TRUE(store.CreateJob(PinSpec()).ok());
  ASSERT_TRUE(store.SaveState("pin", PinState()).ok());
  ASSERT_TRUE(serve::ModelRegistry::Publish(dir + "/registry", 1, PinConfig(),
                                            PinParams(), 2)
                  .ok());

  EXPECT_EQ(Hex(ReadAll(dir + "/m.ahgm")), kPinModel);
  EXPECT_EQ(ReadAll(dir + "/registry/model_v1.ahgm"),
            ReadAll(dir + "/m.ahgm"));
  EXPECT_EQ(Hex(ReadAll(dir + "/spec.bin")), kPinSpec);
  EXPECT_EQ(ReadAll(dir + "/store/pin/spec.bin"), ReadAll(dir + "/spec.bin"));
  EXPECT_EQ(Hex(ReadAll(dir + "/checkpoint.bin")), kPinCheckpoint);
  EXPECT_EQ(Hex(ReadAll(dir + "/task_spec.bin")), kPinTaskSpec);
  EXPECT_EQ(Hex(ReadAll(dir + "/task_checkpoint.bin")), kPinTaskCheckpoint);
  EXPECT_EQ(ReadAll(dir + "/store/pin/state.tsv"),
            "ahg-job-state\t1\n"
            "status\trunning\n"
            "attempts\t2\n"
            "checkpoints_written\t5\n"
            "published_version\t0\n"
            "message\ta b\n");
  EXPECT_EQ(ReadAll(dir + "/registry/registry.tsv"),
            "ahg-registry\t1\n1\tmodel_v1.ahgm\t2\n");
}

// --- seeded mutation fuzzer ------------------------------------------------
//
// Every loader of a persisted format, fed mutations of a valid file: every
// truncation, every header bit flipped, seeded payload bit flips, and every
// length field inflated to its maximum. A loader must return a value or a
// Status: never throw, abort, or allocate tensors the file cannot hold.

struct FuzzTarget {
  std::string name;
  std::string file;     // the valid file that is mutated in place
  size_t header_bytes;  // prefix whose every bit is flipped
  bool binary;          // binary records must reject every truncation
  std::function<Status()> load;
};

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Length-field inflations: for binary records, every offset overwritten with
// the u32 and u64 maxima and with the caps themselves (which pass the cap
// check and must then fail the bytes-remaining check); for text, every digit
// run replaced with an overflowing and a maximal value.
std::vector<std::string> Inflations(const std::string& valid, bool binary) {
  std::vector<std::string> out;
  if (binary) {
    for (uint64_t value : {uint64_t{0xFFFFFFFFu}, kMaxTensorDim}) {
      const uint32_t v32 = static_cast<uint32_t>(value);
      for (size_t i = 0; i + sizeof(v32) <= valid.size(); ++i) {
        out.push_back(valid);
        std::memcpy(out.back().data() + i, &v32, sizeof(v32));
      }
    }
    for (uint64_t v64 : {~uint64_t{0}, kMaxRecordCount, kMaxStringBytes}) {
      for (size_t i = 0; i + sizeof(v64) <= valid.size(); ++i) {
        out.push_back(valid);
        std::memcpy(out.back().data() + i, &v64, sizeof(v64));
      }
    }
    return out;
  }
  for (size_t i = 0; i < valid.size();) {
    if (!std::isdigit(static_cast<unsigned char>(valid[i]))) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < valid.size() &&
           std::isdigit(static_cast<unsigned char>(valid[end]))) {
      ++end;
    }
    for (const char* big : {"99999999999999999999999", "2147483647"}) {
      out.push_back(valid.substr(0, i) + big + valid.substr(end));
    }
    i = end;
  }
  return out;
}

void Fuzz(const FuzzTarget& target) {
  SCOPED_TRACE(target.name);
  const std::string valid = ReadAll(target.file);
  ASSERT_FALSE(valid.empty());
  ASSERT_TRUE(target.load().ok());
  // Matrices loaded cannot exceed the bytes on disk; a model validated
  // against its config builds one reference copy of the same size.
  const int64_t budget =
      2 * DirBytes(std::filesystem::path(target.file).parent_path()) + 4096;
  int64_t loads = 0;
  const auto load = [&](const std::string& bytes, const std::string& what) {
    WriteRaw(target.file, bytes);
    AllocTracker::ResetPeak();
    const int64_t base = AllocTracker::CurrentBytes();
    Status s = Status::Internal("loader threw");
    EXPECT_NO_THROW(s = target.load()) << what;
    EXPECT_LE(AllocTracker::PeakBytes() - base, budget) << what;
    ++loads;
    return s;
  };

  for (size_t n = 0; n < valid.size(); ++n) {
    const Status s = load(valid.substr(0, n), "cut at " + std::to_string(n));
    if (target.binary) {
      EXPECT_FALSE(s.ok()) << "accepted a cut at byte " << n;
    }
  }
  const size_t bits = valid.size() * 8;
  std::vector<size_t> flips;
  for (size_t bit = 0; bit < std::min(target.header_bytes * 8, bits); ++bit) {
    flips.push_back(bit);
  }
  Rng rng(0xf022);
  for (int i = 0; i < 256; ++i) {
    flips.push_back(static_cast<size_t>(rng.UniformInt(bits)));
  }
  for (size_t bit : flips) {
    std::string bytes = valid;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    load(bytes, "bit " + std::to_string(bit) + " flipped");
  }
  const std::vector<std::string> inflated = Inflations(valid, target.binary);
  EXPECT_FALSE(inflated.empty());
  for (size_t i = 0; i < inflated.size(); ++i) {
    load(inflated[i], "inflation " + std::to_string(i));
  }

  WriteRaw(target.file, valid);
  EXPECT_TRUE(target.load().ok()) << "after " << loads << " mutated loads";
}

constexpr size_t kAhgjHeaderBytes = 12;  // magic, version, kind

TEST(FormatFuzzTest, ModelFile) {
  const std::string dir = FreshDir("fuzz_model");
  const std::string path = dir + "/m.ahgm";
  ASSERT_TRUE(SaveModel(path, PinConfig(), PinParams()).ok());
  // Magic, version, the config block and the tensor count.
  Fuzz({"AHGM", path, 8 + kModelConfigBytes + 4, true,
        [&] { return LoadModel(path).status(); }});
}

TEST(FormatFuzzTest, JobRecords) {
  const std::string dir = FreshDir("fuzz_ahgj");
  const std::string spec = dir + "/spec.bin";
  const std::string ckpt = dir + "/checkpoint.bin";
  const std::string task_spec = dir + "/task_spec.bin";
  const std::string task_ckpt = dir + "/task_checkpoint.bin";
  ASSERT_TRUE(jobs::SaveSpec(spec, PinSpec()).ok());
  ASSERT_TRUE(jobs::SaveCheckpoint(ckpt, PinCheckpoint()).ok());
  ASSERT_TRUE(jobs::SaveTaskSpec(task_spec, PinTaskSpec()).ok());
  ASSERT_TRUE(jobs::SaveTaskCheckpoint(task_ckpt, PinTaskCheckpoint()).ok());
  Fuzz({"AHGJ spec", spec, kAhgjHeaderBytes, true,
        [&] { return jobs::LoadSpec(spec).status(); }});
  Fuzz({"AHGJ checkpoint", ckpt, kAhgjHeaderBytes, true,
        [&] { return jobs::LoadCheckpoint(ckpt).status(); }});
  Fuzz({"AHGJ task spec", task_spec, kAhgjHeaderBytes, true,
        [&] { return jobs::LoadTaskSpec(task_spec).status(); }});
  Fuzz({"AHGJ task checkpoint", task_ckpt, kAhgjHeaderBytes, true,
        [&] { return jobs::LoadTaskCheckpoint(task_ckpt).status(); }});
}

TEST(FormatFuzzTest, TextManifests) {
  const std::string dir = FreshDir("fuzz_text");
  jobs::JobStore store(dir + "/store");
  ASSERT_TRUE(store.CreateJob(PinSpec()).ok());
  ASSERT_TRUE(store.SaveState("pin", PinState()).ok());
  Fuzz({"state.tsv", store.JobDir("pin") + "/state.tsv",
        sizeof("ahg-job-state\t1"), false,
        [&] { return store.LoadState("pin").status(); }});

  const std::string registry = dir + "/registry";
  ASSERT_TRUE(
      serve::ModelRegistry::Publish(registry, 1, PinConfig(), PinParams(), 2)
          .ok());
  Fuzz({"registry.tsv", registry + "/registry.tsv",
        sizeof("ahg-registry\t1"), false,
        [&] { return serve::ModelRegistry(registry).Refresh(); }});

  MemberSpec member;
  member.config = PinConfig();
  member.num_classes = 2;
  MemberSpec second = member;
  second.pool_index = 1;
  const TrainedEnsemble ensemble = TrainedEnsemble::FromParts(
      {member, second}, {PinParams(), PinParams()}, {1.0 / 3.0, 2.0 / 3.0});
  const std::string ensemble_dir = dir + "/ensemble";
  ASSERT_TRUE(ensemble.Save(ensemble_dir).ok());
  Fuzz({"manifest.tsv", ensemble_dir + "/manifest.tsv", sizeof("beta"), false,
        [&] { return TrainedEnsemble::Load(ensemble_dir).status(); }});

  SyntheticConfig cfg;
  cfg.num_nodes = 12;
  cfg.avg_degree = 3.0;
  cfg.seed = 5;
  const std::string perm = dir + "/perm.txt";
  WriteRaw(perm, ComputeReorder(GenerateSbmGraph(cfg), ReorderStrategy::kRcm, 1)
                     .Serialize());
  Fuzz({"ahg-node-perm", perm, sizeof("ahg-node-perm 1"), false,
        [&] { return NodePermutation::Deserialize(ReadAll(perm)).status(); }});
}

// The KDD Cup dataset layout is read from user-supplied files: every file
// of it goes through the same mutations, and the loader must return a
// Status (never throw or abort) for each.
TEST(FormatFuzzTest, AutographDataset) {
  SyntheticConfig cfg;
  cfg.num_nodes = 10;
  cfg.num_classes = 3;
  cfg.feature_dim = 2;
  cfg.avg_degree = 2.0;
  cfg.weighted = true;
  cfg.seed = 7;
  const Graph g = GenerateSbmGraph(cfg);
  Rng rng(8);
  const DataSplit split = RandomSplit(g, 0.5, 0.0, &rng);
  const std::string dir = FreshDir("fuzz_autograph");
  ASSERT_TRUE(
      WriteAutographDataset(dir, g, split.train, split.test, 60.0).ok());
  for (const char* file : {"config.yml", "feature.tsv", "train_node_id.txt",
                           "test_node_id.txt", "edge.tsv",
                           "train_label.tsv"}) {
    Fuzz({file, dir + "/" + file, 16, false,
          [&] { return ReadAutographDataset(dir).status(); }});
  }
}

TEST(AutographFormatTest, ParseErrorNamesFileAndLine) {
  const std::string dir = FreshDir("autograph_lines");
  Graph g = Graph::Create(2, {{0, 1, 1.0}}, false,
                          Matrix::Constant(2, 2, 1.0), {0, 1}, 2);
  ASSERT_TRUE(WriteAutographDataset(dir, g, {0}, {1}, 60.0).ok());
  WriteRaw(dir + "/feature.tsv", "0\t1\t1\n\n1\t1\tx1\n");
  auto read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(read.status().message().find("feature.tsv:3"), std::string::npos)
      << read.status().ToString();

  // A feature row with a column missing is an error, not an abort.
  WriteRaw(dir + "/feature.tsv", "0\t1\t1\n1\t1\n");
  read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("feature.tsv:2"), std::string::npos)
      << read.status().ToString();

  // So is a training node outside the graph.
  WriteRaw(dir + "/feature.tsv", "0\t1\t1\n1\t1\t1\n");
  WriteRaw(dir + "/train_node_id.txt", "0\n2\n");
  read = ReadAutographDataset(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("train_node_id.txt:2"),
            std::string::npos)
      << read.status().ToString();
}

}  // namespace
}  // namespace ahg

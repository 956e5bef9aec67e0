// bench_e2e: end-to-end ingest→sink benchmark for the DataCell engine.
//
// Runs one of three workloads through the public Engine / ShardedEngine /
// Channel API, checks the results against values the benchmark computes
// from its own generated inputs, and prints every end-to-end metric by name
// with its unit. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   feed_csv     Figure 1 path: producer -> Channel -> receptor (CSV parse)
//                -> shared basket -> 8 filter/projection queries -> sinks,
//                on one Engine with Start(2).
//   shard_keyed  ShardedEngine N=2, Start(1) per shard: Zipf-keyed stream
//                hash-split on k, alternating row and columnar ingest; a
//                filter, a GROUP BY k and a global aggregate (frontend merge).
//   linear_road  the linearroad query network on one Engine with a
//                simulated clock, driven tick by tick with IngestBatch+Drain.
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 runs the
// workload twice on fresh engines, untraced then traced (timed calls into
// each layer, spans kept in memory, per-step profiling on), and reports the
// per-layer metrics plus the traced-minus-untraced end-to-end deltas.
//
// The threaded workloads run each of their engine instances in a child
// process: this binary again, with --instance E, which measures one
// instance (traced when --trace 1) and prints its record for the parent.
//
// Usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR] [--sink-spin-ns NS] [--instance E]

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "adapters/channel.h"
#include "adapters/sink.h"
#include "core/engine.h"
#include "core/shard.h"
#include "linearroad/generator.h"
#include "linearroad/queries.h"

#ifndef BENCH_CXX_COMPILER
#define BENCH_CXX_COMPILER "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace datacell {
namespace {

// ---------------------------------------------------------------------------
// Time, options, small statistics
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Every gen_us value and every span time is an offset from this instant.
const int64_t kEpochNs = NowNs();

int64_t SinceEpochUs(int64_t ns) { return (ns - kEpochNs) / 1000; }

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void SpinNs(int64_t ns) {
  const int64_t end = NowNs() + ns;
  while (NowNs() < end) {
  }
}

// Sleeps until `due_ns`, spinning only for the last stretch so the open-loop
// generator stays close to its schedule without burning a whole core.
void SleepUntilNs(int64_t due_ns) {
  for (;;) {
    int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 150000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else if (left > 20000) {
      std::this_thread::yield();
    }
  }
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Cumulative CPU jiffies of the whole VM, total and stolen by the
// hypervisor (the `steal` column of /proc/stat).
std::pair<int64_t, int64_t> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    int64_t v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

// Share of the VM's CPU time the hypervisor stole since the previous Take().
class StealMeter {
 public:
  StealMeter() { Take(); }
  double Take() {
    const auto [total, steal] = CpuJiffies();
    const double share = Ratio(static_cast<double>(steal - steal_),
                               static_cast<double>(total - total_));
    total_ = total;
    steal_ = steal;
    return share;
  }

 private:
  int64_t total_ = 0, steal_ = 0;
};

// Peak resident set size of one engine instance's process, sampled from
// /proc/self/statm at most every 2 ms by the generator thread, in the
// open-loop phase (the fixed rate latency is measured at) or, for
// linear_road, over every tick; the run reports the median over instances.
// The process-wide high-water mark followed short allocation spikes of the
// saturated closed loop whose size varied 1.7x between identical runs.
class RssSampler {
 public:
  void Sample() {
    const int64_t now = NowNs();
    if (now < next_ns_) return;
    next_ns_ = now + 2000000;
    peak_mb_ = std::max(peak_mb_, CurrentMb());
  }
  double peak_mb() const { return peak_mb_; }

  static double CurrentMb() {
    std::ifstream in("/proc/self/statm");
    int64_t size = 0, resident = 0;
    in >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

 private:
  double peak_mb_ = 0;
  int64_t next_ns_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  // Sensitivity self-check: busy-wait per delivered row inside the
  // benchmark's own sink. Off (0) in every recorded run.
  int64_t sink_spin_ns = 0;
  // >= 0: this process measures engine instance E of a threaded workload.
  int instance = -1;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Log-linear histogram of non-negative integers (µs): exact below 1024,
// 128 sub-buckets per power of two above (0.8% resolution), clamped at
// 2^30 (about 18 minutes). Small (28 KB), as every open-loop window keeps
// one.
class LatHist {
 public:
  LatHist() : buckets_(1024 + 20 * 128, 0) {}

  void Add(int64_t v) {
    ++buckets_[Index(std::clamp<int64_t>(v, 0, (int64_t{1} << 30) - 1))];
    ++count_;
  }
  void Merge(const LatHist& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  int64_t count() const { return count_; }
  // Lower edge of the bucket holding the q-quantile.
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    int64_t rank = static_cast<int64_t>(std::ceil(q * count_));
    rank = std::clamp<int64_t>(rank, 1, count_);
    int64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += static_cast<int64_t>(buckets_[i]);
      if (seen >= rank) return static_cast<double>(Lower(i));
    }
    return static_cast<double>(Lower(buckets_.size() - 1));
  }

 private:
  static size_t Index(int64_t v) {
    if (v < 1024) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(static_cast<uint64_t>(v));  // 10 .. 29
    size_t sub = static_cast<size_t>(v >> (e - 7)) & 127;
    return 1024 + static_cast<size_t>(e - 10) * 128 + sub;
  }
  static int64_t Lower(size_t i) {
    if (i < 1024) return static_cast<int64_t>(i);
    size_t e = (i - 1024) / 128 + 10;
    int64_t sub = static_cast<int64_t>((i - 1024) % 128);
    return (int64_t{128} + sub) << (e - 7);
  }

  std::vector<uint64_t> buckets_;
  int64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t id;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

// Spans are kept in memory and written out when the run ends. A send span's
// id is the batch sequence number the generator writes into the `seq`
// column; a sink span's parent is the max `seq` of the rows it delivered, so
// the two share an id. Other spans draw ids above kOwnIdBase.
class SpanLog {
 public:
  static constexpr int64_t kOwnIdBase = int64_t{1} << 40;
  static constexpr size_t kCapacity = 400000;

  bool enabled() const { return enabled_; }
  void Enable() {
    enabled_ = true;
    spans_.reserve(kCapacity);
  }
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const char* name, int64_t id, int64_t parent, int64_t start_ns,
           int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  }
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"dropped\": " << dropped_ << ", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - kEpochNs)
          << ",\"end_ns\":" << (s.end_ns - kEpochNs) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  std::atomic<int64_t> next_id_{kOwnIdBase};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark's sink
// ---------------------------------------------------------------------------

// Column positions of one query's output rows. count_col < 0 counts each row
// as one input tuple (projections); otherwise the column holds count(*).
struct SinkLayout {
  int seq_col = -1;
  int gen_col = -1;
  int sum_col = -1;
  int count_col = -1;
  int key_col = -1;
  size_t num_keys = 0;
};

// Per-run state the sinks read: whether open-loop latency is being sampled,
// the spin option, the span log.
struct SinkContext {
  std::atomic<bool> record_latency{false};
  int64_t spin_ns = 0;
  SpanLog* spans = nullptr;
};

// Aggregates deliver sum/max as double; every value here is an integer well
// inside double's exact range.
int64_t IntAt(const Table& batch, int col, size_t row) {
  const Bat& b = *batch.column(static_cast<size_t>(col));
  return b.type() == DataType::kInt64 ? b.Int64At(row)
                                      : std::llround(b.DoubleAt(row));
}

// Counts what a query delivered (rows, represented input tuples, value sum,
// optional per-key totals) and samples delivery latency against `gen_us`.
class BenchSink final : public ResultSink {
 public:
  BenchSink(const char* span_name, SinkLayout layout, SinkContext* ctx)
      : span_name_(span_name),
        layout_(layout),
        ctx_(ctx),
        key_count_(layout.num_keys, 0),
        key_sum_(layout.num_keys, 0) {}

  void OnBatch(const Table& batch, Timestamp) override {
    const int64_t start = NowNs();
    const size_t n = batch.num_rows();
    const bool sample = ctx_->record_latency.load(std::memory_order_relaxed);
    const int64_t now_us = SinceEpochUs(start);
    int64_t counted = 0;
    int64_t sum = 0;
    int64_t max_seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < n; ++i) {
        int64_t c = layout_.count_col < 0 ? 1 : IntAt(batch, layout_.count_col, i);
        int64_t s = layout_.sum_col < 0 ? 0 : IntAt(batch, layout_.sum_col, i);
        counted += c;
        sum += s;
        if (layout_.seq_col >= 0) {
          max_seq = std::max(max_seq, IntAt(batch, layout_.seq_col, i));
        }
        if (layout_.key_col >= 0) {
          int64_t k = IntAt(batch, layout_.key_col, i);
          if (k < 0 || static_cast<size_t>(k) >= key_count_.size()) {
            bad_keys_ = true;
          } else {
            key_count_[k] += c;
            key_sum_[k] += s;
          }
        }
        if (sample && layout_.gen_col >= 0) {
          lat_.Add(now_us - IntAt(batch, layout_.gen_col, i));
        }
      }
    }
    if (ctx_->spin_ns > 0) SpinNs(ctx_->spin_ns * static_cast<int64_t>(n));
    rows_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    counted_.fetch_add(counted, std::memory_order_release);
    if (ctx_->spans != nullptr && ctx_->spans->enabled()) {
      ctx_->spans->Add(span_name_, ctx_->spans->NewId(),
                       layout_.seq_col >= 0 ? max_seq : current_parent.load(),
                       start, NowNs());
    }
  }

  int64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  int64_t counted() const { return counted_.load(std::memory_order_acquire); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  LatHist TakeLatency() {
    LatHist out;  // allocated outside the lock the delivery path takes
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(out, lat_);
    return out;
  }
  void KeyTotals(std::vector<int64_t>* count, std::vector<int64_t>* sum,
                 bool* bad_keys) const {
    std::lock_guard<std::mutex> lock(mu_);
    *count = key_count_;
    *sum = key_sum_;
    *bad_keys = bad_keys_;
  }

  // Parent id for sinks whose rows carry no seq column (linear_road: the
  // tick being drained).
  std::atomic<int64_t> current_parent{0};

 private:
  const char* span_name_;
  SinkLayout layout_;
  SinkContext* ctx_;
  mutable std::mutex mu_;
  LatHist lat_;
  std::vector<int64_t> key_count_;
  std::vector<int64_t> key_sum_;
  bool bad_keys_ = false;
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> counted_{0};
  std::atomic<int64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Results and per-layer metric extraction
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // -1: not a sampled statistic
};

// What one run measured. The per-instance lists get one entry per engine
// instance (per pass for linear_road); the threaded workloads run each
// instance in a child process, which sends its PhaseResult to the parent as
// text (Serialize) and the parent appends it to the run's (AppendRecord).
struct PhaseResult {
  std::vector<double> tps;           // max_tps of each instance
  std::vector<double> inst_p50, inst_p99;
  std::vector<double> inst_calm;     // calm latency windows of each instance
  std::vector<double> rss_peaks_mb;
  std::vector<double> lag_max_us, lag_p99_us;  // open-loop generator lateness
  std::vector<double> setup_s;       // every timed set-up
  // Open loop, per window: p99 (µs), generator lag p99 (µs), stolen CPU
  // share, and whether the window was pooled.
  std::vector<double> win_p99, win_lag_p99, win_steal, win_kept;
  int64_t lat_samples = 0;  // samples the per-instance percentiles pooled
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // result-check failures
  std::map<std::string, std::vector<double>> layers;  // traced run only

  // Medians over instances (SummarizeInstances).
  double max_tps = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;

  // Record keys and the members they fill, for a const or a mutable result.
  template <typename Self>
  static auto Lists(Self& r) {
    return std::map<std::string, decltype(&r.tps)>{
        {"tps", &r.tps}, {"inst_p50", &r.inst_p50}, {"inst_p99", &r.inst_p99},
        {"inst_calm", &r.inst_calm}, {"rss_peaks_mb", &r.rss_peaks_mb},
        {"lag_max_us", &r.lag_max_us}, {"lag_p99_us", &r.lag_p99_us},
        {"setup_s", &r.setup_s}, {"win_p99", &r.win_p99},
        {"win_lag_p99", &r.win_lag_p99}, {"win_steal", &r.win_steal},
        {"win_kept", &r.win_kept}};
  }
  template <typename Self>
  static auto Counts(Self& r) {
    return std::map<std::string, decltype(&r.attempted)>{
        {"lat_samples", &r.lat_samples}, {"attempted", &r.attempted},
        {"failed", &r.failed}};
  }

  std::string Serialize() const {
    std::ostringstream out;
    out.precision(17);
    for (const auto& [name, list] : Lists(*this)) {
      out << name;
      for (double v : *list) out << ' ' << v;
      out << '\n';
    }
    for (const auto& [name, v] : Counts(*this)) out << name << ' ' << *v << '\n';
    for (const auto& [name, values] : layers) {
      for (double v : values) out << "layer " << name << ' ' << v << '\n';
    }
    for (const std::string& e : errors) out << "error " << e << '\n';
    return out.str();
  }

  // False when `record` is not a whole Serialize() output.
  bool AppendRecord(const std::string& record) {
    std::istringstream in(record);
    std::string line;
    const auto list_keys = Lists(*this);
    const auto count_keys = Counts(*this);
    size_t lists = 0;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      if (key == "error") {
        errors.push_back(line.substr(6));
      } else if (key == "layer") {
        std::string name;
        double v = 0;
        fields >> name >> v;
        layers[name].push_back(v);
      } else if (auto l = list_keys.find(key); l != list_keys.end()) {
        for (double v; fields >> v;) l->second->push_back(v);
        ++lists;
      } else if (auto c = count_keys.find(key); c != count_keys.end()) {
        int64_t v = 0;
        fields >> v;
        *c->second += v;
      }
    }
    return lists == list_keys.size();
  }
};

std::string LabelValue(const MetricLabels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return "";
}

// Sums over the registries of one or more engines.
class RegistryView {
 public:
  std::vector<MetricsSnapshotData> snaps;

  int64_t Counter(const std::string& name) const {
    int64_t total = 0;
    for (const auto& s : snaps) {
      for (const auto& c : s.counters) {
        if (c.name == name) total += c.value;
      }
    }
    return total;
  }
  int64_t TransitionCounter(const std::string& name,
                            const std::string& kind) const {
    int64_t total = 0;
    for (const auto& s : snaps) {
      for (const auto& c : s.counters) {
        if (c.name == name && LabelValue(c.labels, "kind") == kind) {
          total += c.value;
        }
      }
    }
    return total;
  }
  // Merged fire-latency histogram of every transition of `kind`.
  HistogramSnapshot FireLatency(const std::string& kind) const {
    HistogramSnapshot merged;
    merged.buckets.assign(Histogram::kNumBuckets, 0);
    for (const auto& s : snaps) {
      for (const auto& h : s.histograms) {
        if (h.name != "datacell_transition_fire_latency_us" ||
            LabelValue(h.labels, "kind") != kind) {
          continue;
        }
        for (size_t b = 0; b < h.buckets.size() && b < merged.buckets.size();
             ++b) {
          merged.buckets[b] += h.buckets[b];
        }
        merged.count += h.count;
        merged.sum += h.sum;
        merged.max = std::max(merged.max, h.max);
      }
    }
    return merged;
  }
  int64_t MaxGauge(const std::string& name) const {
    int64_t best = 0;
    for (const auto& s : snaps) {
      for (const auto& g : s.gauges) {
        if (g.name == name) best = std::max(best, g.value);
      }
    }
    return best;
  }
  // Per-step profiler time summed over steps whose label contains one of
  // `needles` (case-insensitive), divided by the input tuples of the owning
  // queries' factories. Windowed queries run outside the profiled pipeline
  // steps (their step cells stay 0); with `charge_unprofiled` the whole
  // profiled fire time of such a query is charged instead.
  double StepNsPerInputRow(const std::vector<std::string>& needles,
                           bool charge_unprofiled) const {
    auto lower = [](std::string s) {
      for (char& c : s) c = static_cast<char>(std::tolower(c));
      return s;
    };
    double time_ns = 0;
    int64_t rows = 0;
    for (const auto& s : snaps) {
      std::map<std::string, int64_t> step_ns;  // query -> matched step time
      for (const auto& c : s.counters) {
        if (c.name != "datacell_profile_step_time_ns_total") continue;
        std::string step = lower(LabelValue(c.labels, "step"));
        for (const auto& n : needles) {
          if (step.find(n) != std::string::npos) {
            step_ns[LabelValue(c.labels, "query")] += c.value;
            break;
          }
        }
      }
      for (auto& [q, t] : step_ns) {
        if (t == 0 && charge_unprofiled) {
          t = FindValue(s, "datacell_profile_fire_time_ns_total", "query", q);
        }
        if (t == 0) continue;
        time_ns += static_cast<double>(t);
        rows += FindValue(s, "datacell_transition_tuples_total", "transition",
                          "factory_" + q);
      }
    }
    return rows == 0 ? 0 : time_ns / static_cast<double>(rows);
  }
  // Sum of the profiler's whole-fire time over every query (steady clock,
  // unlike the fire-latency histograms, which read the engine clock).
  int64_t ProfiledFireNs() const { return Counter("datacell_profile_fire_time_ns_total"); }

 private:
  static int64_t FindValue(const MetricsSnapshotData& s, const std::string& name,
                           const std::string& label, const std::string& value) {
    int64_t total = 0;
    for (const auto& c : s.counters) {
      if (c.name == name && LabelValue(c.labels, label) == value) total += c.value;
    }
    return total;
  }
};

// Per-layer metrics every workload reports (0 where the layer is not on the
// workload's path). Metrics measured by the benchmark's own timed calls are
// filled in by the workload; these come from the engines' registries.
void RegistryLayers(const RegistryView& r, size_t num_queries,
                    std::map<std::string, double>* out) {
  auto& m = *out;
  HistogramSnapshot rec = r.FireLatency("receptor");
  HistogramSnapshot fac = r.FireLatency("factory");
  HistogramSnapshot emi = r.FireLatency("emitter");
  const double rec_tuples = r.TransitionCounter("datacell_transition_tuples_total", "receptor");
  const double fac_tuples = r.TransitionCounter("datacell_transition_tuples_total", "factory");
  const double fac_fires = r.TransitionCounter("datacell_transition_fires_total", "factory");
  const double emi_rows = r.TransitionCounter("datacell_transition_tuples_total", "emitter");
  m["adapters.receptor_busy_ns_per_tuple"] = Ratio(rec.sum * 1000.0, rec_tuples);
  const double timeout = r.Counter("datacell_scheduler_wakes_timeout_total");
  const double notified = r.Counter("datacell_scheduler_wakes_notified_total");
  m["core.scheduler.firings_per_sweep"] =
      Ratio(r.Counter("datacell_scheduler_firings_total"),
            r.Counter("datacell_scheduler_sweeps_total"));
  m["core.scheduler.timeout_wake_ratio"] = Ratio(timeout, timeout + notified);
  m["core.basket.high_water_tuples"] = r.MaxGauge("datacell_basket_high_water");
  m["core.factory.busy_ns_per_tuple"] = Ratio(fac.sum * 1000.0, fac_tuples);
  m["core.factory.fire_p99_us"] = fac.count == 0 ? 0 : fac.Percentile(0.99);
  m["core.factory.tuples_per_fire"] = Ratio(fac_tuples, fac_fires);
  m["core.emitter.busy_ns_per_row"] = Ratio(emi.sum * 1000.0, emi_rows);
  m["algebra.filter_ns_per_row"] = r.StepNsPerInputRow({"filter", "select"}, false);
  m["algebra.aggregate_ns_per_row"] = r.StepNsPerInputRow({"aggregate", "group"}, true);
  m["algebra.join_ns_per_row"] = r.StepNsPerInputRow({"join"}, false);
  m["algebra.specialized_share"] =
      Ratio(r.Counter("datacell_specialized_queries"), num_queries);
  const double hits = r.Counter("datacell_pool_hits_total");
  const double misses = r.Counter("datacell_pool_misses_total");
  m["storage.pool_hit_ratio"] = Ratio(hits, hits + misses);
}

// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"adapters.push_ns_per_tuple", "ns"},
      {"adapters.channel_lag_max", "tuples"},
      {"adapters.receptor_busy_ns_per_tuple", "ns"},
      {"core.ingest_ns_per_tuple", "ns"},
      {"core.shard.route_row_ns_per_tuple", "ns"},
      {"core.shard.route_col_ns_per_tuple", "ns"},
      {"core.shard.skew", "ratio"},
      {"core.shard.merge_busy_ns_per_row", "ns"},
      {"core.scheduler.drain_ms", "ms"},
      {"core.scheduler.firings_per_sweep", "ratio"},
      {"core.scheduler.timeout_wake_ratio", "ratio"},
      {"core.basket.high_water_tuples", "tuples"},
      {"core.factory.busy_ns_per_tuple", "ns"},
      {"core.factory.fire_p99_us", "us"},
      {"core.factory.tuples_per_fire", "tuples"},
      {"core.emitter.busy_ns_per_row", "ns"},
      {"algebra.filter_ns_per_row", "ns"},
      {"algebra.aggregate_ns_per_row", "ns"},
      {"algebra.join_ns_per_row", "ns"},
      {"algebra.specialized_share", "ratio"},
      {"storage.pool_hit_ratio", "ratio"},
      {"sql.submit_ms_per_query", "ms"},
      {"trace.delta.max_tps", "1/s"},
      {"trace.delta.lat_p50_us", "us"},
      {"trace.delta.lat_p99_us", "us"},
  };
  return units;
}

// One latency window: the delivery latency of each row delivered in it, how
// late the open-loop generator ran in it (p99, µs), and the share of the
// VM's CPU the hypervisor stole during it.
struct LatWindow {
  LatHist lat;
  double lag_p99_us = 0;
  double steal_share = 0;
};

constexpr int64_t kPeriodUs = 1000;      // open loop: one batch per period
constexpr int64_t kWindowBatches = 50;   // open loop: latency window
constexpr double kOnTimeLagUs = kPeriodUs / 4.0;

// One engine instance's p50 and p99, each over every row of its quietest
// windows pooled. Quiet means little CPU stolen by the hypervisor in the
// window and both neighbours (`steal` in /proc/stat; the kernel books a
// stolen slice at a later tick), among the windows whose generator lag p99
// stayed within a quarter batch period (all windows if none did). The
// instance pools every window with the least steal in that neighbourhood;
// they are calm when that least is 0. In the other windows the engine did
// not get the CPU or the stated rate: one stolen slice of a few ms delays
// as many batches as a p99 over one instance's ~800 batches allows, and the
// host has stalled the generator by more than 15 ms at times.
void PoolWindows(const std::vector<LatWindow>& windows, PhaseResult* r) {
  const size_t n = windows.size();
  std::vector<double> stolen(n);  // in the window and its neighbours
  bool any_on_time = false;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i == 0 ? 0 : i - 1; j <= i + 1 && j < n; ++j) {
      stolen[i] += windows[j].steal_share;
    }
    any_on_time = any_on_time || windows[i].lag_p99_us <= kOnTimeLagUs;
  }
  auto candidate = [&](size_t i) {
    return !any_on_time || windows[i].lag_p99_us <= kOnTimeLagUs;
  };
  double least = 1e9;
  for (size_t i = 0; i < n; ++i) {
    if (candidate(i)) least = std::min(least, stolen[i]);
  }
  LatHist pooled;
  std::vector<bool> kept(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (candidate(i) && stolen[i] == least) {
      pooled.Merge(windows[i].lat);
      kept[i] = true;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    r->win_p99.push_back(windows[i].lat.Percentile(0.99));
    r->win_lag_p99.push_back(windows[i].lag_p99_us);
    r->win_steal.push_back(windows[i].steal_share);
    r->win_kept.push_back(kept[i] ? 1 : 0);
  }
  const size_t num_kept = static_cast<size_t>(std::count(kept.begin(), kept.end(), true));
  r->inst_calm.push_back(least == 0 && any_on_time ? static_cast<double>(num_kept) : 0);
  r->inst_p50.push_back(pooled.Percentile(0.50));
  r->inst_p99.push_back(pooled.Percentile(0.99));
  r->lat_samples += pooled.count();
}

// The run's figures are medians over its engine instances; latency over the
// instances that had a calm window, or over all when none had.
void SummarizeInstances(PhaseResult* r) {
  std::vector<double> p50, p99;
  for (size_t i = 0; i < r->inst_calm.size(); ++i) {
    if (r->inst_calm[i] > 0) {
      p50.push_back(r->inst_p50[i]);
      p99.push_back(r->inst_p99[i]);
    }
  }
  if (p99.empty()) {
    p50 = r->inst_p50;
    p99 = r->inst_p99;
  }
  r->max_tps = Median(r->tps);
  r->lat_p50_us = Median(p50);
  r->lat_p99_us = Median(p99);
}

// ---------------------------------------------------------------------------
// Threaded workloads: feed_csv and shard_keyed
// ---------------------------------------------------------------------------

// Waits until `done()` holds; false after `timeout_s` (a healthy engine
// catches up within milliseconds).
bool WaitFor(const std::function<bool()>& done, double timeout_s = 10) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

struct ThreadedPlan {
  double open_rate;       // tuples/s in the open-loop phase
  size_t closed_batch;    // tuples per send in the closed loop
  int64_t max_backlog;    // closed loop: tuples in flight before it waits
};

// Engine instances per run, each in a fresh child process (this binary with
// --instance): throughput on this kind of host settles into a level per
// instance (thread placement; shard_keyed's instances of one run spread
// over +-15%), so a run reports medians across instances, and a fresh
// process gives each the allocator state of a newly started engine.
// Measured in one process, the resident baseline grew by up to 8 MB over
// nine instances.
constexpr int kEngines = 15;
// Timed set-ups per instance; the engine of the last one is measured. The
// first two in a process take up to 4x longer (feed_csv); with eight, the
// run's median is one of the later ones.
constexpr int kSetupsPerInstance = 8;
// Generated values repeat with this period. With 2^16 slots the throughput
// of a run depended on the seed (up to 20% between two seeds, the same
// for every run of one seed); at 2^20 that is gone.
constexpr size_t kRing = 1 << 20;

// One threaded workload: its generated values, its generator loops, and the
// engine and sinks each Setup() builds. A workload supplies the engine
// (Setup, Send, Done, Backlog, Finish) and its own per-layer metrics.
class ThreadedWorkload {
 public:
  ThreadedWorkload(const Args& args, bool traced, const char* name,
                   ThreadedPlan plan)
      : traced_(traced), name_(name), plan_(plan) {
    keys_.resize(kRing);
    vals_.resize(kRing);
    ctx_.spin_ns = args.sink_spin_ns;
    ctx_.spans = &spans_;
    if (traced_) spans_.Enable();
  }
  virtual ~ThreadedWorkload() = default;

  // One engine instance: the timed set-ups, an open-loop segment for
  // latency and RSS, a closed-loop warm-up (not measured), a closed-loop
  // slice for max_tps, then the result checks. Time split: 40% open loop,
  // 5% warm-up, 55% closed loop. The open loop runs first so the closed
  // loop's saturated bursts leave no allocator residue in the RSS readings.
  PhaseResult RunInstance(double seconds) {
    PhaseResult r;
    for (int i = 0; i < kSetupsPerInstance; ++i) r.setup_s.push_back(Setup());
    RssSampler rss;
    int64_t seq = 1;
    bool ok = OpenLoop(&rss, 0.40 * seconds, &seq, &r);
    ok = ok && ClosedLoop(0.05 * seconds, &seq) >= 0;
    const double tps = ok ? ClosedLoop(0.55 * seconds, &seq) : -1;
    r.rss_peaks_mb.push_back(rss.peak_mb());
    if (tps >= 0) r.tps.push_back(tps);
    RegistryView view;
    Finish(&r, &view);
    if (tps < 0) {
      r.errors.push_back(std::string(name_) +
                         ": sinks never received every expected row");
    }
    if (traced_) {
      std::map<std::string, double> layers;
      RegistryLayers(view, queries_, &layers);
      layers["sql.submit_ms_per_query"] = Ratio(submit_ns_ / 1e6, submits_);
      Layers(&layers);
      for (const auto& [name, v] : layers) r.layers[name].push_back(v);
    }
    return r;
  }

  const SpanLog& spans() const { return spans_; }

 protected:
  // Stops and drops the previous engine, then builds and starts a fresh one
  // with fresh sinks and zeroed expected totals. Returns the set-up time:
  // engine construction, DDL, every query, Start.
  virtual double Setup() = 0;
  // Ingests the next n generated tuples as batch `seq`, stamped `gen_us`.
  virtual void Send(int64_t seq, int64_t gen_us, size_t n) = 0;
  // Every tuple sent since Setup() reached every sink.
  virtual bool Done() const = 0;
  // Tuples sent since Setup() but not yet through every query.
  virtual int64_t Backlog() const = 0;
  // Stops the engine and checks what every sink received against the
  // generator's totals; adds attempted/failed counts and, traced, the
  // engine's registry snapshots to `view` (and their queries to queries_).
  virtual void Finish(PhaseResult* r, RegistryView* view) = 0;
  // Traced run: the workload's own per-layer metrics (timed calls).
  virtual void Layers(std::map<std::string, double>* layers) const = 0;

  void Check(const Status& st) const {
    if (!st.ok()) {
      std::cerr << name_ << " setup failed: " << st.ToString() << "\n";
      std::exit(1);
    }
  }

  // Submits one continuous query (timed, for sql.submit_ms_per_query) and
  // subscribes a fresh sink that reads its rows as `layout` says.
  template <typename EngineT>
  void AddQuery(EngineT* engine, const std::string& name,
                const std::string& sql, SinkLayout layout) {
    const int64_t s0 = NowNs();
    Result<QueryId> id = engine->SubmitContinuousQuery(name, sql);
    submit_ns_ += NowNs() - s0;
    ++submits_;
    Check(id.status());
    sinks_.push_back(std::make_shared<BenchSink>("sink.q", layout, &ctx_));
    Check(engine->Subscribe(*id, sinks_.back()));
  }

  const bool traced_;
  std::vector<int32_t> keys_, vals_;  // filled by the workload from the seed
  size_t cursor_ = 0;                 // next slot of keys_/vals_
  int64_t sent_ = 0;                  // tuples sent to the current engine
  SinkContext ctx_;
  SpanLog spans_;
  std::vector<std::shared_ptr<BenchSink>> sinks_;
  size_t queries_ = 0;  // traced: queries in the measured engine's registries

 private:
  // Fixed-rate open loop: one batch every kPeriodUs, each event stamped
  // with its batch's due time. Latency is kept per window of kWindowBatches
  // batches (a row counts in the window it is delivered in), with the
  // generator's lag and the stolen CPU in that window; the instance's
  // latency is pooled from them. False when the tail never drained.
  bool OpenLoop(RssSampler* rss, double seconds, int64_t* seq, PhaseResult* r) {
    const size_t batch = static_cast<size_t>(plan_.open_rate * kPeriodUs / 1e6);
    const int64_t batches = static_cast<int64_t>(seconds * 1e6 / kPeriodUs);
    for (const auto& s : sinks_) s->TakeLatency();
    ctx_.record_latency.store(true);
    std::vector<LatWindow> windows;
    StealMeter steal;
    LatHist lag, all_lag;
    auto close_window = [&] {
      LatWindow w;
      for (const auto& s : sinks_) w.lat.Merge(s->TakeLatency());
      w.lag_p99_us = lag.Percentile(0.99);
      w.steal_share = steal.Take();
      all_lag.Merge(lag);
      lag = LatHist();
      windows.push_back(std::move(w));
    };
    const int64_t start = NowNs() + 2000000;
    steal.Take();
    for (int64_t b = 0; b < batches; ++b) {
      const int64_t due = start + b * kPeriodUs * 1000;
      SleepUntilNs(due);
      lag.Add((NowNs() - due) / 1000);
      Send((*seq)++, SinceEpochUs(due), batch);
      rss->Sample();
      if ((b + 1) % kWindowBatches == 0 && b + kWindowBatches < batches) {
        close_window();
      }
    }
    bool ok = WaitFor([&] { return Done(); });
    ctx_.record_latency.store(false);
    close_window();
    PoolWindows(windows, r);
    r->lag_max_us.push_back(all_lag.Percentile(1.0));
    r->lag_p99_us.push_back(all_lag.Percentile(0.99));
    return ok;
  }

  // Backlog-bounded closed loop: sends as fast as the backlog allows for
  // `seconds`, then waits until everything is processed. Returns tuples/s,
  // or a negative value when the sinks never caught up.
  double ClosedLoop(double seconds, int64_t* seq) {
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    int64_t n = 0;
    while (NowNs() < stop) {
      while (Backlog() > plan_.max_backlog) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      Send((*seq)++, SinceEpochUs(NowNs()), plan_.closed_batch);
      n += static_cast<int64_t>(plan_.closed_batch);
    }
    if (!WaitFor([&] { return Done(); })) return -1;
    return static_cast<double>(n) / ((NowNs() - start) / 1e9);
  }

  const char* name_;
  const ThreadedPlan plan_;
  int64_t submit_ns_ = 0, submits_ = 0;
};

// ---------------------------------------------------------------------------
// feed_csv
// ---------------------------------------------------------------------------

constexpr int kCsvQueries = 8;
// v is uniform in [0, 10000): `v < threshold` selects 1% .. 50%.
constexpr int64_t kCsvThreshold[kCsvQueries] = {100,  200,  500,  1000,
                                                1500, 2500, 3500, 5000};

class FeedCsv final : public ThreadedWorkload {
 public:
  FeedCsv(const Args& args, bool traced)
      : ThreadedWorkload(args, traced, "feed_csv", {300000, 4096, 16 * 4096}) {
    std::mt19937_64 rng(args.seed);
    for (size_t i = 0; i < kRing; ++i) {
      keys_[i] = static_cast<int32_t>(rng() % 1000);
      vals_[i] = static_cast<int32_t>(rng() % 10000);
    }
  }
  ~FeedCsv() override { Teardown(); }

 private:
  double Setup() override {
    Teardown();
    expected_count_.assign(kCsvQueries, 0);
    expected_sum_.assign(kCsvQueries, 0);
    const int64_t t0 = NowNs();
    EngineOptions opts;
    opts.profile_queries = traced_;
    engine_ = std::make_unique<Engine>(opts);
    channel_ = std::make_unique<Channel>();
    Check(engine_->ExecuteSql(
                     "create basket ev (seq int, gen_us int, k int, v int)")
              .status());
    Check(engine_->AttachReceptor("ev", channel_.get()).status());
    for (int q = 0; q < kCsvQueries; ++q) {
      std::string name = "q";  // not "q" + to_string: GCC 12 -Wrestrict
      name += std::to_string(q);
      SinkLayout layout;
      layout.seq_col = 0;
      layout.gen_col = 1;
      layout.sum_col = 2;
      AddQuery(engine_.get(), name,
               "select seq, gen_us, v from [select * from ev] as s "
               "where s.v < " + std::to_string(kCsvThreshold[q]),
               layout);
    }
    Check(engine_->Start(2));
    return (NowNs() - t0) / 1e9;
  }

  // Formats the batch's lines `seq,gen_us,k,v` before the timed push.
  void Send(int64_t seq, int64_t gen_us, size_t n) override {
    std::string prefix;
    AppendInt(&prefix, seq);
    prefix += ',';
    AppendInt(&prefix, gen_us);
    prefix += ',';
    std::vector<std::string> lines;
    lines.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      size_t slot = cursor_++ % kRing;
      std::string line;
      line.reserve(prefix.size() + 12);
      line = prefix;
      AppendInt(&line, keys_[slot]);
      line += ',';
      AppendInt(&line, vals_[slot]);
      lines.push_back(std::move(line));
      int64_t v = vals_[slot];
      for (int q = kCsvQueries - 1; q >= 0 && v < kCsvThreshold[q]; --q) {
        ++expected_count_[q];
        expected_sum_[q] += v;
      }
    }
    sent_ += static_cast<int64_t>(n);
    if (!traced_) {
      channel_->PushBatch(std::move(lines));
      return;
    }
    const int64_t t0 = NowNs();
    channel_->PushBatch(std::move(lines));
    const int64_t t1 = NowNs();
    push_ns_ += t1 - t0;
    pushed_ += static_cast<int64_t>(n);
    spans_.Add("send.push_batch", seq, 0, t0, t1);
    lag_max_ = std::max<int64_t>(lag_max_, static_cast<int64_t>(channel_->size()));
  }

  bool Done() const override {
    for (int q = 0; q < kCsvQueries; ++q) {
      if (sinks_[q]->rows() < expected_count_[q]) return false;
    }
    return channel_->empty();
  }

  // Estimated per query from its missing rows and its selectivity (tuples
  // still in the channel have produced no rows yet, so they count too).
  int64_t Backlog() const override {
    int64_t lag = 0;
    for (int q = 0; q < kCsvQueries; ++q) {
      int64_t missing = expected_count_[q] - sinks_[q]->rows();
      lag = std::max(lag, missing * 10000 / kCsvThreshold[q]);
    }
    return lag;
  }

  void Finish(PhaseResult* r, RegistryView* view) override {
    engine_->Stop();
    for (int q = 0; q < kCsvQueries; ++q) {
      if (sinks_[q]->rows() != expected_count_[q] ||
          sinks_[q]->sum() != expected_sum_[q]) {
        r->errors.push_back("feed_csv q" + std::to_string(q) + ": rows " +
                            std::to_string(sinks_[q]->rows()) + " sum " +
                            std::to_string(sinks_[q]->sum()) + ", expected " +
                            std::to_string(expected_count_[q]) + " / " +
                            std::to_string(expected_sum_[q]));
      }
    }
    MetricsSnapshotData snap = engine_->MetricsSnapshot();
    RegistryView one;
    one.snaps.push_back(snap);
    r->attempted += sent_;
    r->failed += channel_->total_dropped() +
                 one.Counter("datacell_receptor_malformed_total") +
                 engine_->total_shed();
    if (traced_) {
      view->snaps.push_back(std::move(snap));
      queries_ += engine_->num_queries();
    }
  }

  void Layers(std::map<std::string, double>* layers) const override {
    (*layers)["adapters.push_ns_per_tuple"] = Ratio(push_ns_, pushed_);
    (*layers)["adapters.channel_lag_max"] = static_cast<double>(lag_max_);
  }

  // The receptor reads the channel, so the engine stops and dies first.
  void Teardown() {
    if (engine_ != nullptr) engine_->Stop();
    engine_.reset();
    channel_.reset();
    sinks_.clear();
    sent_ = 0;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Channel> channel_;
  std::vector<int64_t> expected_count_, expected_sum_;
  // Traced-run accumulators, over every engine of the instance.
  int64_t push_ns_ = 0, pushed_ = 0, lag_max_ = 0;
};

// ---------------------------------------------------------------------------
// shard_keyed
// ---------------------------------------------------------------------------

constexpr size_t kShardKeys = 4096;
constexpr double kShardZipf = 1.1;
constexpr int64_t kShardFilterBelow = 500;  // v uniform in [0, 10000): 5%

class ShardKeyed final : public ThreadedWorkload {
 public:
  ShardKeyed(const Args& args, bool traced)
      : ThreadedWorkload(args, traced, "shard_keyed", {1000000, 4096, 32 * 4096}) {
    std::mt19937_64 rng(args.seed);
    std::vector<double> cdf(kShardKeys);
    double total = 0;
    for (size_t k = 0; k < kShardKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kShardZipf);
      cdf[k] = total;
    }
    for (size_t i = 0; i < kRing; ++i) {
      double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
      size_t k = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      keys_[i] = static_cast<int32_t>(std::min(k, kShardKeys - 1));
      vals_[i] = static_cast<int32_t>(rng() % 10000);
    }
    schema_ = Schema({{"seq", DataType::kInt64},
                      {"gen_us", DataType::kInt64},
                      {"k", DataType::kInt64},
                      {"v", DataType::kInt64}});
    columns_ = ColumnBatch(schema_);
  }
  ~ShardKeyed() override { Teardown(); }

 private:
  double Setup() override {
    Teardown();
    key_count_.assign(kShardKeys, 0);
    key_sum_.assign(kShardKeys, 0);
    join_count_.assign(kShardKeys, 0);
    join_sum_.assign(kShardKeys, 0);
    const int64_t t0 = NowNs();
    ShardedEngineOptions opts;
    opts.num_shards = 2;
    opts.engine.profile_queries = traced_;
    engine_ = std::make_unique<ShardedEngine>(opts);
    Check(engine_->CreateStream("ks", schema_, "k"));
    // The static side of the join: every even key (replicated to each
    // shard by the DDL fan-out).
    std::string dims = "insert into dims values ";
    for (size_t k = 0; k < kShardKeys; k += 2) {
      dims += (k ? ", (" : "(") + std::to_string(k) + ")";
    }
    Check(engine_->ExecuteScript("create table dims (k int); " + dims).status());
    // Layouts: seq, gen, sum, count, key columns; key space. The join
    // reports the dims side's key, so a row joined to the wrong dims row
    // lands on the wrong key.
    AddQuery(engine_.get(), "jn",
             "select t.seq, t.gen_us, d.k, t.v from [select * from ks] as t "
             "join dims as d on t.k = d.k where t.v < " +
                 std::to_string(kShardFilterBelow),
             {0, 1, 3, -1, 2, kShardKeys});
    AddQuery(engine_.get(), "grp",
             "select k, count(*) as n, sum(v) as sv, max(gen_us) as g, "
             "max(seq) as sq from [select * from ks] as s group by k",
             {4, 3, 2, 1, 0, kShardKeys});
    AddQuery(engine_.get(), "glob",
             "select count(*) as n, sum(v) as sv, max(gen_us) as g, "
             "max(seq) as sq from [select * from ks] as s",
             {3, 2, 1, 0, -1, 0});
    Check(engine_->Start(1));
    return (NowNs() - t0) / 1e9;
  }

  // Even batches go through the row router, odd ones through the columnar
  // router, on the same stream.
  void Send(int64_t seq, int64_t gen_us, size_t n) override {
    const bool columnar = (seq % 2) == 1;
    if (!columnar) rows_.resize(n, Row(4, Value::Int64(0)));
    for (size_t i = 0; i < n; ++i) {
      size_t slot = cursor_++ % kRing;
      int64_t k = keys_[slot];
      int64_t v = vals_[slot];
      ++key_count_[k];
      key_sum_[k] += v;
      if (v < kShardFilterBelow && k % 2 == 0) {
        ++join_count_[k];
        join_sum_[k] += v;
        ++join_rows_;
      }
      if (columnar) {
        columns_.column(0).AppendInt64(seq);
        columns_.column(1).AppendInt64(gen_us);
        columns_.column(2).AppendInt64(k);
        columns_.column(3).AppendInt64(v);
      } else {
        Row& row = rows_[i];
        row[0] = Value::Int64(seq);
        row[1] = Value::Int64(gen_us);
        row[2] = Value::Int64(k);
        row[3] = Value::Int64(v);
      }
    }
    sent_ += static_cast<int64_t>(n);
    const int64_t t0 = traced_ ? NowNs() : 0;
    Status st = columnar ? engine_->IngestColumns("ks", std::move(columns_))
                         : engine_->IngestBatch("ks", rows_);
    if (columnar) columns_.Clear();
    if (!st.ok()) ++rejected_;
    if (!traced_) return;
    const int64_t t1 = NowNs();
    (columnar ? col_ns_ : row_ns_) += t1 - t0;
    (columnar ? col_tuples_ : row_tuples_) += static_cast<int64_t>(n);
    spans_.Add(columnar ? "send.ingest_columns" : "send.ingest_batch", seq, 0,
               t0, t1);
  }

  bool Done() const override {
    return sinks_[2]->counted() >= sent_ && sinks_[1]->counted() >= sent_ &&
           sinks_[0]->rows() >= join_rows_;
  }

  // The GROUP BY and the global aggregate each count every tuple they have
  // processed; the slower one bounds how much waits in the shard baskets.
  int64_t Backlog() const override {
    return sent_ - std::min(sinks_[1]->counted(), sinks_[2]->counted());
  }

  // Per-key count and sum across every GROUP BY row and every join row, and
  // the global aggregate's totals, against the generator.
  void Finish(PhaseResult* r, RegistryView* view) override {
    engine_->Stop();
    auto check_keys = [&](const char* query, const BenchSink& sink,
                          const std::vector<int64_t>& count,
                          const std::vector<int64_t>& sum) {
      std::vector<int64_t> got_count, got_sum;
      bool bad_keys = false;
      sink.KeyTotals(&got_count, &got_sum, &bad_keys);
      int64_t wrong_keys = 0;
      for (size_t k = 0; k < kShardKeys; ++k) {
        if (got_count[k] != count[k] || got_sum[k] != sum[k]) ++wrong_keys;
      }
      if (bad_keys || wrong_keys > 0) {
        r->errors.push_back(std::string("shard_keyed ") + query + ": " +
                            std::to_string(wrong_keys) +
                            " keys with wrong count/sum");
      }
    };
    check_keys("jn", *sinks_[0], join_count_, join_sum_);
    check_keys("grp", *sinks_[1], key_count_, key_sum_);
    int64_t total_sum = 0;
    for (int64_t s : key_sum_) total_sum += s;
    if (sinks_[2]->counted() != sent_ || sinks_[2]->sum() != total_sum) {
      r->errors.push_back("shard_keyed glob: count " +
                          std::to_string(sinks_[2]->counted()) + " sum " +
                          std::to_string(sinks_[2]->sum()) + ", expected " +
                          std::to_string(sent_) + " / " +
                          std::to_string(total_sum));
    }
    int64_t shed = 0;
    for (size_t i = 0; i < engine_->num_shards(); ++i) {
      shed += engine_->shard(i).total_shed();
      if (traced_) {
        view->snaps.push_back(engine_->shard(i).MetricsSnapshot());
        queries_ += engine_->shard(i).num_queries();
      }
    }
    if (traced_) frontend_.snaps.push_back(engine_->metrics().Snapshot());
    r->attempted += sent_;
    r->failed += shed + rejected_;
    rejected_ = 0;
  }

  void Layers(std::map<std::string, double>* layers) const override {
    auto& m = *layers;
    // The frontend registry holds the router counters and the merge
    // emitters (the shard registries hold everything else).
    HistogramSnapshot merge = frontend_.FireLatency("emitter");
    m["core.shard.merge_busy_ns_per_row"] = Ratio(
        merge.sum * 1000.0,
        frontend_.TransitionCounter("datacell_transition_tuples_total", "emitter"));
    std::map<std::string, double> routed;  // shard -> tuples
    for (const auto& s : frontend_.snaps) {
      for (const auto& c : s.counters) {
        if (c.name == "datacell_shard_routed_tuples_total") {
          routed[LabelValue(c.labels, "shard")] += static_cast<double>(c.value);
        }
      }
    }
    double sum = 0, max = 0;
    for (const auto& [shard, v] : routed) {
      sum += v;
      max = std::max(max, v);
    }
    m["core.shard.skew"] =
        routed.empty() ? 0 : max / (sum / static_cast<double>(routed.size()));
    m["core.shard.route_row_ns_per_tuple"] = Ratio(row_ns_, row_tuples_);
    m["core.shard.route_col_ns_per_tuple"] = Ratio(col_ns_, col_tuples_);
  }

  void Teardown() {
    if (engine_ != nullptr) engine_->Stop();
    engine_.reset();
    sinks_.clear();
    sent_ = 0;
    join_rows_ = 0;
  }

  Schema schema_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<Row> rows_;
  ColumnBatch columns_;
  std::vector<int64_t> key_count_, key_sum_;
  std::vector<int64_t> join_count_, join_sum_;
  int64_t join_rows_ = 0;
  int64_t rejected_ = 0;
  // Traced-run accumulators, over every engine of the instance.
  int64_t row_ns_ = 0, col_ns_ = 0, row_tuples_ = 0, col_tuples_ = 0;
  RegistryView frontend_;
};

// ---------------------------------------------------------------------------
// linear_road
// ---------------------------------------------------------------------------

constexpr int kLrTicks = 600;       // simulated seconds per pass
constexpr int kLrCheckTicks = 360;  // prefix compared against the reference

linearroad::LrConfig LrConfigFor(uint64_t seed) {
  linearroad::LrConfig c;
  c.num_xways = 4;
  c.vehicles_per_xway = 5000;
  c.seed = seed;
  return c;
}

std::vector<Row> TickRows(linearroad::LrGenerator& gen) {
  std::vector<Row> rows;
  for (const linearroad::PositionReport& r : gen.Tick()) rows.push_back(r.ToRow());
  return rows;
}

// Every row every query delivered, rendered for a multiset comparison.
class CollectRows final : public ResultSink {
 public:
  explicit CollectRows(std::string tag) : tag_(std::move(tag)) {}
  void OnBatch(const Table& batch, Timestamp) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::string s = tag_;
      for (const Value& v : batch.GetRow(i)) {
        s += '|';
        s += v.ToString();
      }
      rows_.insert(std::move(s));
    }
  }
  std::multiset<std::string> rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }

 private:
  std::string tag_;
  mutable std::mutex mu_;
  std::multiset<std::string> rows_;
};

class LinearRoad {
 public:
  LinearRoad(const Args& args, bool traced) : args_(args), traced_(traced) {
    ctx_.spin_ns = args.sink_spin_ns;
    ctx_.spans = &spans_;
    if (traced_) spans_.Enable();
  }

  PhaseResult Run(double seconds) {
    PhaseResult r;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t engine_failed = 0;
    RegistryView last;
    size_t num_queries = 0;
    // Closed loop, ticks back to back. Each pass is a fresh engine over the
    // same seeded traffic; passes repeat until the time is up.
    do {
      const int64_t s0 = NowNs();
      EngineOptions opts;
      opts.use_wall_clock = false;
      opts.profile_queries = traced_;
      auto engine = std::make_unique<Engine>(opts);
      Result<linearroad::LrQueries> q = linearroad::InstallLrQueries(engine.get());
      const int64_t s1 = NowNs();
      if (!q.ok()) {
        std::cerr << "linear_road setup failed: " << q.status().ToString() << "\n";
        std::exit(1);
      }
      r.setup_s.push_back((s1 - s0) / 1e9);
      submit_ns_ = s1 - s0;
      auto sink = std::make_shared<BenchSink>("sink.lr", SinkLayout{}, &ctx_);
      if (traced_) {
        for (QueryId id : {q->segstats, q->accidents, q->tolls}) {
          (void)engine->Subscribe(id, sink);
        }
      }
      linearroad::LrGenerator gen(LrConfigFor(args_.seed));
      RssSampler rss;
      int64_t busy_ns = 0;
      int64_t reports = 0;
      LatHist ticks;
      for (int t = 0; t < kLrTicks; ++t) {
        std::vector<Row> rows = TickRows(gen);  // outside the timed region
        const int64_t tick_id = traced_ ? spans_.NewId() : 0;
        sink->current_parent.store(tick_id);
        const int64_t a = NowNs();
        if (!rows.empty() && !engine->IngestBatch(linearroad::kLrStreamName, rows).ok()) {
          ++rejected_;
        }
        const int64_t b = NowNs();
        engine->Drain();
        const int64_t c = NowNs();
        engine->simulated_clock()->Advance(kMicrosPerSecond);
        rss.Sample();
        busy_ns += c - a;
        reports += static_cast<int64_t>(rows.size());
        ticks.Add((c - a) / 1000);
        if (traced_) {
          ingest_ns_ += b - a;
          drain_ns_ += c - b;
          ++traced_ticks_;
          spans_.Add("tick", tick_id, 0, a, c);
          spans_.Add("ingest_batch", spans_.NewId(), tick_id, a, b);
          spans_.Add("drain", spans_.NewId(), tick_id, b, c);
        }
      }
      r.tps.push_back(static_cast<double>(reports) / (busy_ns / 1e9));
      // Each pass is one engine instance with a single latency window; no
      // generator runs against a clock here.
      PoolWindows({LatWindow{ticks, 0, 0}}, &r);
      r.rss_peaks_mb.push_back(rss.peak_mb());
      r.attempted += reports;
      engine_failed += engine->total_shed() + engine->scheduler().error_count();
      traced_reports_ += reports;
      if (traced_) {
        last.snaps.assign(1, engine->MetricsSnapshot());
        num_queries = engine->num_queries();
      }
    } while (NowNs() < deadline);
    SummarizeInstances(&r);
    r.failed = engine_failed + rejected_;
    if (traced_) {
      std::map<std::string, double> m;
      RegistryLayers(last, num_queries, &m);
      // On the simulated clock every fire-latency observation is 0; the
      // profiler's steady-clock fire time stands in for factory busy time.
      m["core.factory.busy_ns_per_tuple"] = Ratio(
          last.ProfiledFireNs(),
          last.TransitionCounter("datacell_transition_tuples_total", "factory"));
      m["core.ingest_ns_per_tuple"] = Ratio(ingest_ns_, traced_reports_);
      m["core.scheduler.drain_ms"] = Ratio(drain_ns_ / 1e6, traced_ticks_);
      m["sql.submit_ms_per_query"] = submit_ns_ / 1e6 / 3;
      for (const auto& [name, v] : m) r.layers[name].push_back(v);
    }
    return r;
  }

  // Outside the timed region: the benchmarked configuration and the
  // interpreter-only reference engine (specialize_plans = false) over the
  // same seeded prefix must deliver the same multiset of rows.
  std::vector<std::string> CheckAgainstReference() const {
    auto run = [&](bool specialize) {
      EngineOptions opts;
      opts.use_wall_clock = false;
      opts.specialize_plans = specialize;
      Engine engine(opts);
      Result<linearroad::LrQueries> q = linearroad::InstallLrQueries(&engine);
      std::vector<std::shared_ptr<CollectRows>> sinks;
      if (q.ok()) {
        const std::pair<const char*, QueryId> queries[] = {
            {"segstats", q->segstats}, {"accidents", q->accidents}, {"tolls", q->tolls}};
        for (const auto& [tag, id] : queries) {
          sinks.push_back(std::make_shared<CollectRows>(tag));
          (void)engine.Subscribe(id, sinks.back());
        }
      }
      linearroad::LrGenerator gen(LrConfigFor(args_.seed));
      for (int t = 0; t < kLrCheckTicks && q.ok(); ++t) {
        std::vector<Row> rows = TickRows(gen);
        if (!rows.empty()) (void)engine.IngestBatch(linearroad::kLrStreamName, rows);
        engine.Drain();
        engine.simulated_clock()->Advance(kMicrosPerSecond);
      }
      std::multiset<std::string> all;
      for (const auto& s : sinks) {
        std::multiset<std::string> rows = s->rows();
        all.insert(rows.begin(), rows.end());
      }
      return all;
    };
    std::multiset<std::string> got = run(true);
    std::multiset<std::string> want = run(false);
    std::vector<std::string> errors;
    if (want.empty()) errors.push_back("linear_road: reference run produced no rows");
    if (got != want) {
      errors.push_back("linear_road: " + std::to_string(got.size()) +
                       " rows differ from the reference's " +
                       std::to_string(want.size()));
    }
    return errors;
  }

  const SpanLog& spans() const { return spans_; }

 private:
  const Args& args_;
  bool traced_;
  SinkContext ctx_;
  SpanLog spans_;
  int64_t rejected_ = 0;
  int64_t ingest_ns_ = 0, drain_ns_ = 0, traced_ticks_ = 0, traced_reports_ = 0;
  int64_t submit_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Host stamp, output
// ---------------------------------------------------------------------------

// Process-wide resident high-water mark (kept in the result file).
double ProcessHwmMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// `{"name": {"value": v, "unit": u}, ...}`; sample counts are added only
// where asked (the result file), keeping the printed line to value and unit.
std::string MetricsJson(const std::map<std::string, Metric>& metrics,
                        bool with_samples) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Num(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (with_samples && m.samples >= 0) out << ", \"samples\": " << m.samples;
    out << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

// The result file: the printed result plus host identity, seed, how late
// the open-loop generator ran, and the per-window / per-instance values the
// reported medians were taken over.
void WriteResultFile(const std::string& path, const Args& args,
                     const PhaseResult& r, bool correct,
                     const std::map<std::string, Metric>& metrics,
                     double steal_share) {
  std::ofstream out(path);
  auto list = [&](const char* key, const std::vector<double>& v) {
    out << ",\n \"" << key << "\": [";
    for (size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << Num(v[i]);
    out << "]";
  };
  auto max = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"sink_spin_ns\": " << args.sink_spin_ns
      << ",\n \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"compiler\": \"" << JsonEscape(BENCH_CXX_COMPILER)
      << "\", \"build_type\": \"" << BENCH_BUILD_TYPE << "\"}"
      << ",\n \"generator_lag_us\": {\"max\": " << Num(max(r.lag_max_us))
      << ", \"p99\": " << Num(max(r.lag_p99_us)) << "}"
      << ",\n \"rss_hwm_mb\": " << Num(ProcessHwmMb())
      << ",\n \"host_cpu_stolen_share\": " << Num(steal_share);
  list("instance_p50_us", r.inst_p50);
  list("instance_p99_us", r.inst_p99);
  list("instance_calm_windows", r.inst_calm);
  list("instance_generator_lag_max_us", r.lag_max_us);
  list("instance_generator_lag_p99_us", r.lag_p99_us);
  list("window_p99_us", r.win_p99);
  list("window_generator_lag_p99_us", r.win_lag_p99);
  list("window_stolen_share", r.win_steal);
  list("window_pooled", r.win_kept);
  list("max_tps_per_instance", r.tps);
  list("rss_peak_mb_per_instance", r.rss_peaks_mb);
  list("setup_s_samples", r.setup_s);
  out << ",\n \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ",\n \"metrics\": " << MetricsJson(metrics, true) << "}\n";
}

// Result and span files of a run go to `<out>/<workload>-seed<N>-trace<T>`.
std::string FileStem(const Args& args) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
}

// Child side of --instance: measures one engine instance of a threaded
// workload, writes its spans when traced, and prints its record.
int RunInstanceProcess(const Args& args) {
  std::unique_ptr<ThreadedWorkload> w;
  if (args.workload == "feed_csv") {
    w = std::make_unique<FeedCsv>(args, args.trace);
  } else if (args.workload == "shard_keyed") {
    w = std::make_unique<ShardKeyed>(args, args.trace);
  } else {
    std::cerr << "--instance needs a threaded workload\n";
    return 2;
  }
  PhaseResult r = w->RunInstance(args.seconds);
  if (args.trace) {
    w->spans().Write(FileStem(args) + "-instance" +
                     std::to_string(args.instance) + "-spans.json");
  }
  std::cout << r.Serialize() << std::flush;
  return 0;
}

// Parent side: runs engine instance `e` in a child process and appends the
// record it prints to `r`. The parent starts no engine of its own, so it is
// single-threaded when it forks. False when the child delivered no record.
bool RunChildInstance(const Args& args, bool traced, double seconds, int e,
                      PhaseResult* r) {
  std::vector<std::string> argv = {
      "bench_e2e", "--workload", args.workload,
      "--seed", std::to_string(args.seed),
      "--seconds", Num(seconds),
      "--trace", traced ? "1" : "0",
      "--out", args.out_dir,
      "--sink-spin-ns", std::to_string(args.sink_spin_ns),
      "--instance", std::to_string(e)};
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", cargv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string record;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      record.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (pid < 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         r->AppendRecord(record);
}

// Measures `seconds` of the workload: kEngines child processes for the
// threaded workloads, passes in this process for linear_road.
PhaseResult RunPhase(const Args& args, bool traced, double seconds) {
  if (args.workload == "linear_road") {
    LinearRoad lr(args, traced);
    PhaseResult r = lr.Run(seconds);
    if (traced) {
      lr.spans().Write(FileStem(args) + "-spans.json");
    } else {
      std::vector<std::string> check = lr.CheckAgainstReference();
      r.errors.insert(r.errors.end(), check.begin(), check.end());
    }
    return r;
  }
  PhaseResult r;
  // Stop at the first instance that fails: the run is already wrong, and
  // more 10 s waits would outlast the run's time limit.
  for (int e = 0; e < kEngines && r.errors.empty(); ++e) {
    if (!RunChildInstance(args, traced, seconds / kEngines, e, &r)) {
      r.errors.push_back("engine instance " + std::to_string(e) +
                         " ended without a result");
    }
  }
  SummarizeInstances(&r);
  return r;
}

int RunWorkload(const Args& args) {
  const auto [total0, steal0] = CpuJiffies();
  std::map<std::string, Metric> metrics;
  // --trace 1: untraced then traced, half the time each; the per-layer
  // metrics come from the traced half (medians over its instances), the
  // deltas from the pair.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult main = RunPhase(args, false, seconds);
  std::vector<std::string> errors = main.errors;
  if (args.trace) {
    PhaseResult t = RunPhase(args, true, seconds);
    errors.insert(errors.end(), t.errors.begin(), t.errors.end());
    for (const auto& [name, unit] : LayerUnits()) {
      auto it = t.layers.find(name);
      metrics[name] = Metric{it == t.layers.end() ? 0.0 : Median(it->second), unit};
    }
    metrics["trace.delta.max_tps"].value = t.max_tps - main.max_tps;
    metrics["trace.delta.lat_p50_us"].value = t.lat_p50_us - main.lat_p50_us;
    metrics["trace.delta.lat_p99_us"].value = t.lat_p99_us - main.lat_p99_us;
    main.attempted += t.attempted;
    main.failed += t.failed;
  } else {
    metrics["max_tps"] = Metric{main.max_tps, "1/s"};
    metrics["lat_p50_us"] = Metric{main.lat_p50_us, "us", main.lat_samples};
    metrics["lat_p99_us"] = Metric{main.lat_p99_us, "us", main.lat_samples};
    metrics["setup_s"] = Metric{Median(main.setup_s), "s",
                                static_cast<int64_t>(main.setup_s.size())};
    metrics["peak_rss_mb"] = Metric{Median(main.rss_peaks_mb), "MB",
                                    static_cast<int64_t>(main.rss_peaks_mb.size())};
  }
  const bool correct = errors.empty();
  for (const std::string& e : errors) std::cerr << "CHECK FAILED: " << e << "\n";

  const auto [total1, steal1] = CpuJiffies();
  const double stolen = Ratio(static_cast<double>(steal1 - steal0),
                              static_cast<double>(total1 - total0));
  WriteResultFile(FileStem(args) + ".json", args, main, correct, metrics, stolen);

  for (const auto& [name, m] : metrics) {
    std::cout << name << " = " << Num(m.value) << " " << m.unit;
    if (m.samples >= 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(1, main.attempted)
            << ", \"failed\": " << main.failed
            << ", \"metrics\": " << MetricsJson(metrics, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out") {
      args.out_dir = val;
    } else if (key == "--sink-spin-ns") {
      args.sink_spin_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "--instance") {
      args.instance = std::atoi(val.c_str());
    } else {
      std::cerr << "unknown option " << key << "\n";
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  if (args.instance >= 0) return RunInstanceProcess(args);
  if (args.workload == "feed_csv" || args.workload == "shard_keyed" ||
      args.workload == "linear_road") {
    return RunWorkload(args);
  }
  std::cerr << "unknown workload '" << args.workload
            << "' (feed_csv, shard_keyed, linear_road)\n";
  return 2;
}

}  // namespace
}  // namespace datacell

int main(int argc, char** argv) { return datacell::Main(argc, argv); }

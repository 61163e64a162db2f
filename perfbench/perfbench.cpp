// End-to-end benchmark of the cbip library.
//
// One closed-loop caller in one process drives the public API in its
// default configuration on one workload, round-robin until the time
// budget is spent: set-up from generated .bip text, SequentialEngine
// windows, a 4-shard ShardedEngine window, D-Finder certification and a
// few IncrementalVerifier edits, then again. Every end-to-end figure is
// summarised over all of its samples in the run; per-layer figures are
// medians. Samples are interleaved on purpose: host speed drifts by up to
// 2x over seconds on shared machines, and summaries over samples spread
// across the whole run were the only ones that stayed steady across runs
// there. Correctness checks run between the timed calls, never inside
// them.
//
// With --trace 1 the same schedule runs with every layer call wrapped in a
// span (name, start, end, parent) taken from outside the library; the
// per-layer metrics come from those spans and from the counters the
// library already exposes (DFinderResult, IncrementalVerifier::StepResult,
// ShardedStats, obs::snapshot()). Spans are written at exit as Chrome
// trace-event JSON (load into ui.perfetto.dev).
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
//
//   perfbench --workload philo|ring|skewed --seed N --seconds S --trace 0|1
//             [--out DIR] [--git-sha SHA] [--git-dirty 0|1] [--cpu-model M]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "frontends/bipdsl/bipdsl.hpp"
#include "frontends/bipdsl/printer.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "shard/engine_sharded.hpp"
#include "shard/partition.hpp"
#include "verify/dfinder.hpp"
#include "verify/incremental.hpp"
#include "verify/invariants.hpp"

extern char** environ;

namespace {

using namespace cbip;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 4;
/// Untimed remove/re-add pairs that bring the verifier to steady state.
constexpr std::size_t kWarmupEdits = 24;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double harmonicMean(const std::vector<double>& v) {
  double inverse = 0;
  for (double x : v) inverse += 1.0 / x;
  return v.empty() ? 0.0 : static_cast<double>(v.size()) / inverse;
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- spans -----------------------------------------------------------------

/// In-memory span log: (name, start, end, parent), written at exit as
/// Chrome trace-event JSON. Inactive logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    int parent;
  };

  explicit SpanLog(bool active) : active_(active) {}
  bool active() const { return active_; }

  int open(const char* name) {
    if (!active_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = nowNs();
    stack_.pop_back();
  }

  /// Self time per span name: duration minus the part its children cover
  /// (children never overlap: one caller thread).
  std::map<std::string, double> selfSeconds() const {
    std::vector<std::uint64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += static_cast<double>(s.end - s.start - childNs[i]) * 1e-9;
    }
    return out;
  }

  void write(std::ostream& os) const {
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"perfbench caller\"}}";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    s.name, static_cast<double>(s.start - origin) * 1e-3,
                    static_cast<double>(s.end - s.start) * 1e-3, i, s.parent);
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  bool active_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name) : log_(&log), id_(log.open(name)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { log_->close(id_); }

 private:
  SpanLog* log_;
  int id_;
};

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::function<System()> engineModel;
  std::function<System()> verifyModel;  // empty: the engine model
  std::uint64_t seqWindow;      // steps per SequentialEngine window
  std::uint64_t shardedWindow;  // steps per ShardedEngine window
  int certifiesPerRound;        // checkDeadlockFreedom calls per round
  int editsPerKind;             // connectors of each kind edited per round
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"philo", [] { return models::philosophersAtomic(2048); },
       [] { return models::philosophersAtomic(256); }, 10'000, 10'000, 1, 3},
      {"ring", [] { return models::tokenRing(4096); }, {}, 20'000, 20'000, 3, 1},
      // 20k sharded steps: the cold budgets drain after 14,336 steps, so
      // each window also runs the post-drain phase where load sits on the
      // low shards and rebalancing and stealing act.
      {"skewed", [] { return models::skewedPairs(4096, 512, 4); }, {}, 200'000, 20'000, 4, 6},
  };
  return all;
}

// ---- final-state properties --------------------------------------------------

/// Per-workload property of any reachable state, checked on every window's
/// final state. Skewed pairs checks budget conservation instead: every
/// executed step decrements exactly one mate budget.
class StateCheck {
 public:
  StateCheck(const std::string& workload, const System& sys) : workload_(workload) {
    if (workload == "philo") {
      for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
        const System::Instance& inst = sys.instance(i);
        if (inst.name[0] == 'p') {
          philosophers_.push_back(static_cast<int>(i));
          eating_ = inst.type->locationIndex("eating");
        }
      }
    } else if (workload == "skewed") {
      for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
        const System::Instance& inst = sys.instance(i);
        if (inst.name[0] == 'm') {
          mates_.push_back(static_cast<int>(i));
          budgetVar_ = inst.type->variableIndex("budget");
        }
      }
    }
  }

  /// True iff `to`, reached from `from` in `steps` interactions, satisfies
  /// the workload's property.
  bool holds(const System& sys, const GlobalState& from, const GlobalState& to,
             std::uint64_t steps) const {
    if (workload_ == "ring") return models::tokenRingMutex(sys, to);
    if (workload_ == "philo") {
      const std::size_t n = philosophers_.size();
      for (std::size_t i = 0; i < n; ++i) {
        const int a = philosophers_[i];
        const int b = philosophers_[(i + 1) % n];
        if (to.components[a].location == eating_ && to.components[b].location == eating_) {
          return false;
        }
      }
      return true;
    }
    std::int64_t spent = 0;
    for (int m : mates_) {
      spent += from.components[m].vars[budgetVar_] - to.components[m].vars[budgetVar_];
    }
    return spent == static_cast<std::int64_t>(steps);
  }

 private:
  std::string workload_;
  std::vector<int> philosophers_;
  int eating_ = 1;
  std::vector<int> mates_;
  int budgetVar_ = 0;
};

/// Drives SequentialEngine along a recorded trace: at every step it picks
/// the enabled interaction matching the next (connector, mask). The
/// benchmark models have one enabled transition per participant, so the
/// choice vector is canonical; anything else fails the replay.
class ReplayPolicy final : public SchedulingPolicy {
 public:
  explicit ReplayPolicy(const Trace& trace) : trace_(&trace) {}

  std::pair<std::size_t, std::vector<int>> pick(
      const System&, const GlobalState&,
      const std::vector<EnabledInteraction>& enabled) override {
    const TraceEvent& e = trace_->events.at(next_++);
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      if (enabled[i].connector == e.connector && enabled[i].mask == e.mask) {
        for (const std::vector<int>& options : enabled[i].choices) {
          if (options.size() != 1) throw std::runtime_error("ambiguous replay choice");
        }
        return {i, std::vector<int>(enabled[i].choices.size(), 0)};
      }
    }
    throw std::runtime_error("trace event " + e.label + " not enabled at replay");
  }

 private:
  const Trace* trace_;
  std::size_t next_ = 0;
};

// ---- provenance ------------------------------------------------------------

/// Why the configuration is not the shipped one; empty when it is.
std::string configurationProblem() {
  std::string why;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CBIP_NO_", 8) == 0) {
      why += std::string(why.empty() ? "" : "; ") + "escape hatch set: " + *e;
    }
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    why += std::string(why.empty() ? "" : "; ") + "build type is '" PERFBENCH_BUILD_TYPE
           "', not Release";
  }
#ifndef NDEBUG
  why += std::string(why.empty() ? "" : "; ") + "assertions enabled (NDEBUG unset)";
#endif
  return why;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// ---- the run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".";
  std::string gitSha = "unknown";
  std::string gitDirty = "unknown";
  std::string cpuModel = "unknown";
};

/// Samples and counts collected by one run.
struct Results {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  std::map<std::string, std::vector<double>> samples;  // timings, per name
  std::map<std::string, double> counts;                // deterministic, round 0

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  void add(const std::string& name, double value) { samples[name].push_back(value); }
  double med(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args), w_(w), spans_(args.trace), seqPolicy_(args.seed) {}

  void run() {
    prepare();
    const std::uint64_t t0 = nowNs();
    const auto elapsed = [&] { return static_cast<double>(nowNs() - t0) * 1e-9; };
    // Enough rounds for a median, and enough edits that p90 has ten
    // samples above it, however slow the host is.
    const std::size_t minRounds = 5;
    const std::size_t minEdits = 100;
    for (std::size_t round = 0;; ++round) {
      oneRound(round);
      if (elapsed() >= args_.seconds && round + 1 >= minRounds &&
          res_.samples["recertify_s"].size() >= minEdits) {
        rounds_ = round + 1;
        break;
      }
    }
    report();
  }

 private:
  // Untimed: generate the model, print it, check the round trip.
  void prepare() {
    const System factory = w_.engineModel();
    text_ = dsl::printModel(factory);
    sys_.emplace(dsl::parseSystem(text_));
    res_.check(sys_->instanceCount() == factory.instanceCount() &&
                   sys_->connectorCount() == factory.connectorCount(),
               "round trip changed instance or connector count");
    {
      RunOptions o;
      o.maxSteps = 2000;
      o.recordTrace = false;
      RandomPolicy pa(args_.seed), pb(args_.seed);
      SequentialEngine ea(factory, pa), eb(*sys_, pb);
      const RunResult ra = ea.run(o), rb = eb.run(o);
      res_.check(hashState(ra.finalState) == hashState(rb.finalState),
                 "round trip changed the seq final state");
    }
    if (w_.verifyModel) {
      const System vf = w_.verifyModel();
      vsys_.emplace(dsl::parseSystem(dsl::printModel(vf)));
      res_.check(vsys_->instanceCount() == vf.instanceCount() &&
                     vsys_->connectorCount() == vf.connectorCount(),
                 "round trip changed the verify model's counts");
    } else {
      vsys_.emplace(*sys_);
    }
    check_.emplace(w_.name, *sys_);
    seq_.emplace(*sys_, seqPolicy_);
    sharded_.emplace(*sys_, kShards);
    seqState_ = initialState(*sys_);
    {
      SpanScope s(spans_, "verify.incremental_ctor");
      const std::uint64_t c0 = nowNs();
      verifier_.emplace(*vsys_);
      res_.add("verify.incremental_ctor_s", static_cast<double>(nowNs() - c0) * 1e-9);
    }
    // Edits walk every kind of connector (name minus its index) in turn,
    // each kind in its own order, so every round times the same mix of
    // kinds on fresh connectors.
    std::map<std::string, std::vector<std::string>> byKind;
    for (const Connector& c : vsys_->connectors()) {
      byKind[c.name().substr(0, c.name().find_last_not_of("0123456789") + 1)].push_back(c.name());
    }
    const auto interleave = [&](const std::function<std::vector<std::size_t>(std::size_t)>& order) {
      std::vector<std::vector<std::string>> orders;
      std::size_t longest = 0;
      for (const auto& [kind, names] : byKind) {
        std::vector<std::string> o;
        for (std::size_t i : order(names.size())) o.push_back(names[i]);
        longest = std::max(longest, o.size());
        orders.push_back(std::move(o));
      }
      std::vector<std::string> out;
      for (std::size_t j = 0; j < longest; ++j) {
        for (const std::vector<std::string>& o : orders) out.push_back(o[j % o.size()]);
      }
      return out;
    };
    editsPerRound_ = byKind.size() * static_cast<std::size_t>(w_.editsPerKind);
    // Re-checks keep the traps they find, and kept traps change the cost
    // of later re-checks (on ring the first edits take 3x longer than the
    // fortieth; the very first re-check finds every trap from scratch).
    // So the verifier is warmed up once on a fixed, unseeded edit
    // sequence, and every round edits a fresh copy of that state: no
    // seed and no run length changes the state a timed edit starts from.
    const std::vector<std::string> warmup = interleave([](std::size_t n) {
      std::vector<std::size_t> inOrder(n);
      std::iota(inOrder.begin(), inOrder.end(), std::size_t{0});
      return inOrder;
    });
    for (std::size_t e = 0; e < kWarmupEdits; ++e) {
      const std::size_t i = connectorIndex(*verifier_, warmup[e % warmup.size()]);
      const Connector c = verifier_->system().connector(i);
      verifier_->removeConnector(i);
      res_.check(verifier_->addConnector(c).verdict == verify::DFinderVerdict::kDeadlockFree,
                 "warm-up re-add: verdict not deadlock-free");
    }
    Rng rng(args_.seed);
    editOrder_ = interleave([&](std::size_t n) { return rng.permutation(n); });
  }

  const std::string& nextEdit() { return editOrder_[editCursor_++ % editOrder_.size()]; }

  /// Current index of a connector of the verifier's system (re-added
  /// connectors move to the end, so indices drift; names do not).
  static std::size_t connectorIndex(const verify::IncrementalVerifier& v,
                                    const std::string& name) {
    const System& sys = v.system();
    for (std::size_t i = 0; i < sys.connectorCount(); ++i) {
      if (sys.connector(i).name() == name) return i;
    }
    throw std::runtime_error("edited connector " + name + " vanished");
  }

  void oneRound(std::size_t round) {
    SpanScope s(spans_, "round");
    // Two set-ups and two seq windows per round, on either side of the
    // verifier calls, so every metric samples the whole run. The sharded
    // window runs untraced too: its checks count towards `failed`.
    setupSample();
    seqWindow(seqWindows_++);
    shardedWindow(shardedWindows_++);
    for (int i = 0; i < w_.certifiesPerRound; ++i) certify(certifies_++);
    setupSample();
    seqWindow(seqWindows_++);
    edits(round);
  }

  // setup_s: parse the generated text, construct both engines.
  void setupSample() {
    SpanScope s(spans_, "setup");
    const std::uint64_t t0 = nowNs();
    std::optional<System> sys;
    {
      SpanScope p(spans_, "frontends.parse");
      sys.emplace(dsl::parseSystem(text_));
    }
    const std::uint64_t t1 = nowNs();
    RandomPolicy policy(args_.seed);
    std::optional<SequentialEngine> seq;
    {
      SpanScope p(spans_, "engine.seq_ctor");
      seq.emplace(*sys, policy);
    }
    const std::uint64_t t2 = nowNs();
    std::optional<shard::ShardedEngine> sharded;
    std::uint64_t t3 = 0;
    if (spans_.active()) {
      std::optional<shard::Partition> part;
      {
        SpanScope p(spans_, "shard.partition");
        part.emplace(shard::partitionSystem(*sys, shard::PartitionOptions{kShards, 1.125, {}}));
      }
      t3 = nowNs();
      SpanScope p(spans_, "shard.engine_ctor");
      sharded.emplace(*sys, std::move(*part));
    } else {
      sharded.emplace(*sys, kShards);
    }
    const std::uint64_t t4 = nowNs();
    res_.add("setup_s", static_cast<double>(t4 - t0) * 1e-9);
    if (spans_.active()) {
      res_.add("frontends.parse_s", static_cast<double>(t1 - t0) * 1e-9);
      res_.add("engine.seq_ctor_s", static_cast<double>(t2 - t1) * 1e-9);
      res_.add("shard.partition_s", static_cast<double>(t3 - t2) * 1e-9);
      res_.add("shard.engine_ctor_s", static_cast<double>(t4 - t3) * 1e-9);
    }
    res_.check(sharded->sharded().partition().shardCount() == kShards,
               "sharded engine did not get 4 shards");
  }

  /// `window` numbers the seq windows of the run.
  void seqWindow(std::size_t window) {
    RunOptions o;
    o.maxSteps = w_.seqWindow;
    o.recordTrace = false;
    const GlobalState start = seqState_;
    std::optional<GlobalState> replicaFinal;
    if (spans_.active()) replicaFinal = replica(start, window);
    std::uint64_t ns = 0;
    RunResult r;
    {
      SpanScope s(spans_, "engine.seq_window");
      const std::uint64_t t0 = nowNs();
      r = seq_->run(GlobalState(start), o);
      ns = nowNs() - t0;
    }
    res_.add("seq_steps_per_s", static_cast<double>(r.steps) / (static_cast<double>(ns) * 1e-9));
    res_.check(r.reason == StopReason::kStepLimit && r.steps == w_.seqWindow,
               "seq window stopped before the step limit");
    res_.check(check_->holds(*sys_, start, r.finalState, r.steps),
               "seq final state violates the workload property");
    if (replicaFinal) {
      res_.check(*replicaFinal == r.finalState, "traced seq replica diverged from the engine");
      res_.add("trace.seq_ns_per_step", static_cast<double>(ns) / static_cast<double>(r.steps));
    }
    seqState_ = std::move(r.finalState);
  }

  /// The sequential loop rebuilt from public calls, every layer timed from
  /// outside. Runs from `start` with a copy of the engine's policy, so its
  /// final state must equal the engine's.
  GlobalState replica(GlobalState state, std::size_t window) {
    SpanScope windowSpan(spans_, "engine.seq_replica");
    // Per-step spans only in the first window: later windows keep sums.
    const bool stepSpans = window == 0;
    RandomPolicy policy = seqPolicy_;
    const System& sys = *sys_;
    const std::uint64_t w0 = nowNs();
    const obs::Snapshot before = obs::snapshot();
    std::uint64_t resetNs = 0, pickNs = 0, execNs = 0, updNs = 0, enabledSum = 0;
    for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
      runInternal(*sys.instance(i).type, state.components[i]);
    }
    EnabledInteractionCache cache(sys);
    {
      SpanScope s(spans_, "core.cache_reset");
      const std::uint64_t t0 = nowNs();
      cache.reset(state);
      resetNs = nowNs() - t0;
    }
    std::uint64_t steps = 0;
    for (; steps < w_.seqWindow; ++steps) {
      const std::vector<EnabledInteraction>& enabled = cache.enabled();
      if (enabled.empty()) break;
      const int stepSpan = stepSpans ? spans_.open("engine.step") : -1;
      enabledSum += enabled.size();
      std::uint64_t t0 = nowNs();
      int id = stepSpans ? spans_.open("engine.pick") : -1;
      const auto [idx, choice] = policy.pick(sys, state, enabled);
      spans_.close(id);
      std::uint64_t t1 = nowNs();
      pickNs += t1 - t0;
      const EnabledInteraction ei = enabled[idx];
      t0 = nowNs();
      id = stepSpans ? spans_.open("core.execute") : -1;
      execute(sys, state, ei, choice);
      spans_.close(id);
      t1 = nowNs();
      execNs += t1 - t0;
      id = stepSpans ? spans_.open("core.cache_update") : -1;
      cache.updateAfterExecute(state, ei);
      spans_.close(id);
      updNs += nowNs() - t1;
      spans_.close(stepSpan);
    }
    const obs::Snapshot after = obs::snapshot();
    const double n = static_cast<double>(steps);
    res_.add("core.cache_reset_s", static_cast<double>(resetNs) * 1e-9);
    res_.add("engine.pick_ns", static_cast<double>(pickNs) / n);
    res_.add("core.execute_ns", static_cast<double>(execNs) / n);
    res_.add("core.cache_update_ns", static_cast<double>(updNs) / n);
    res_.add("trace.replica_ns_per_step", static_cast<double>(nowNs() - w0) / n);
    if (window == 0) {
      res_.counts["core.enabled_mean"] = static_cast<double>(enabledSum) / n;
      res_.counts["core.recomputes_per_step"] =
          static_cast<double>(after.counter("cache.recomputes") -
                              before.counter("cache.recomputes")) /
          n;
    }
    return state;
  }

  /// `window` numbers the sharded windows of the run.
  void shardedWindow(std::size_t window) {
    shard::ShardedOptions o;
    o.maxSteps = w_.shardedWindow;
    o.recordTrace = false;
    o.seed = args_.seed + window;
    // In the traced run every other window also fills the library's own
    // epoch timeline (a TraceLog sink); the rest measure without it.
    std::optional<obs::TraceLog> sink;
    const bool withSink = spans_.active() && window % 2 == 1;
    if (withSink) {
      sink.emplace();
      obs::setTraceSink(&*sink);
    }
    std::uint64_t ns = 0;
    RunResult r;
    {
      SpanScope s(spans_, "shard.run_window");
      const std::uint64_t t0 = nowNs();
      r = sharded_->run(o);
      ns = nowNs() - t0;
    }
    if (withSink) {
      obs::setTraceSink(nullptr);
      if (window == 1) {
        std::ofstream f(args_.outDir + "/" + w_.name + "-seed" + std::to_string(args_.seed) +
                        "-epochs.json");
        sink->write(f);
      }
    }
    const double perS = static_cast<double>(r.steps) / (static_cast<double>(ns) * 1e-9);
    res_.add("shard.steps_per_s", perS);
    if (spans_.active()) res_.add(withSink ? "trace.sharded_sink_on" : "trace.sharded_sink_off", perS);
    res_.check(r.reason == StopReason::kStepLimit && r.steps == w_.shardedWindow,
               "sharded window stopped before the step limit");
    res_.check(check_->holds(*sys_, initialState(*sys_), r.finalState, r.steps),
               "sharded final state violates the workload property");
    if (spans_.active()) shardLayers(sharded_->lastRunStats(), window == 0);
    if (window % 8 == 0) replaySharded(o);
  }

  void shardLayers(const shard::ShardedStats& st, bool counts) {
    double plan = 0, cross = 0, local = 0, idle = 0, lock = 0, localSteps = 0;
    double granted = 0, unused = 0, maxSteps = 0, sumSteps = 0;
    for (const shard::ShardedStats::Shard& s : st.shards) {
      plan += static_cast<double>(s.planNs);
      cross += static_cast<double>(s.crossNs);
      local += static_cast<double>(s.localNs);
      idle += static_cast<double>(s.idleNs);
      lock += static_cast<double>(s.lockWaitNs);
      localSteps += static_cast<double>(s.localSteps);
      granted += static_cast<double>(s.quotaGranted);
      unused += static_cast<double>(s.quotaUnused);
      maxSteps = std::max(maxSteps, static_cast<double>(s.steps));
      sumSteps += static_cast<double>(s.steps);
    }
    // Phase times are per shard per epoch (summed over shards, divided by
    // shards x epochs); local time is per local step.
    const double shardEpochs = static_cast<double>(st.epochs) * static_cast<double>(st.shards.size());
    res_.add("shard.local_ns_per_step", ratio(local, localSteps));
    res_.add("shard.plan_ns_per_epoch", ratio(plan, shardEpochs));
    res_.add("shard.cross_ns_per_epoch", ratio(cross, shardEpochs));
    res_.add("shard.local_ns_per_epoch", ratio(local, shardEpochs));
    res_.add("shard.idle_ns_per_epoch", ratio(idle, shardEpochs));
    res_.add("shard.lock_wait_ns_per_epoch", ratio(lock, shardEpochs));
    if (!counts) return;
    const double epochs = static_cast<double>(st.epochs);
    res_.counts["shard.steps_per_epoch"] = ratio(static_cast<double>(st.steps), epochs);
    res_.counts["shard.cross_accept_ratio"] =
        ratio(static_cast<double>(st.crossAccepted), static_cast<double>(st.crossCandidates));
    res_.counts["shard.stalled_epoch_ratio"] = ratio(static_cast<double>(st.stalledEpochs), epochs);
    res_.counts["shard.quota_unused_ratio"] = ratio(unused, granted);
    res_.counts["shard.load_imbalance"] =
        ratio(maxSteps, sumSteps / static_cast<double>(st.shards.size()));
    res_.counts["shard.rebalance_decisions"] = static_cast<double>(st.rebalanceDecisions);
    res_.counts["shard.components_moved"] = static_cast<double>(st.componentsMoved);
    res_.counts["shard.steal_events"] = static_cast<double>(st.stealEvents);
  }

  // Untimed: the same window with a recorded trace must replay through
  // SequentialEngine to the same final state.
  void replaySharded(shard::ShardedOptions o) {
    SpanScope s(spans_, "check.sharded_replay");
    o.recordTrace = true;
    const RunResult r = sharded_->run(o);
    bool ok = r.steps == w_.shardedWindow && r.trace.events.size() == r.steps;
    try {
      ReplayPolicy replay(r.trace);
      SequentialEngine seq(*sys_, replay);
      RunOptions ro;
      ro.maxSteps = r.steps;
      ro.recordTrace = false;
      const RunResult back = seq.run(ro);
      ok = ok && back.steps == r.steps && back.finalState == r.finalState;
    } catch (const std::exception&) {
      ok = false;
    }
    res_.check(ok, "sharded trace does not replay through SequentialEngine");
  }

  /// `call` numbers the calls of the run; the first one also records the
  /// deterministic counts.
  void certify(std::size_t call) {
    const System& sys = *vsys_;
    std::uint64_t ns = 0;
    verify::DFinderResult r;
    {
      SpanScope s(spans_, "verify.certify");
      const std::uint64_t t0 = nowNs();
      r = verify::checkDeadlockFreedom(sys);
      ns = nowNs() - t0;
    }
    res_.add("certify_s", static_cast<double>(ns) * 1e-9);
    res_.check(r.verdict == verify::DFinderVerdict::kDeadlockFree, "certify verdict not deadlock-free");
    if (!spans_.active()) return;

    // Traced: the same certificate in its three public stages.
    SpanScope s(spans_, "verify.certify_staged");
    const obs::Snapshot before = obs::snapshot();
    const std::uint64_t t0 = nowNs();
    std::vector<verify::ComponentInvariant> inv;
    {
      SpanScope p(spans_, "verify.invariants");
      inv = verify::componentInvariants(sys);
    }
    const std::uint64_t t1 = nowNs();
    verify::InteractionNet net;
    {
      SpanScope p(spans_, "verify.net");
      net = verify::buildInteractionNet(sys, inv);
    }
    const std::uint64_t t2 = nowNs();
    verify::DFinderResult staged;
    {
      SpanScope p(spans_, "verify.refine");
      staged = verify::checkDeadlockFreedomWith(sys, std::move(inv), {}, {}, &net);
    }
    const std::uint64_t t3 = nowNs();
    const obs::Snapshot after = obs::snapshot();
    res_.add("verify.invariants_s", static_cast<double>(t1 - t0) * 1e-9);
    res_.add("verify.net_s", static_cast<double>(t2 - t1) * 1e-9);
    res_.add("verify.refine_s", static_cast<double>(t3 - t2) * 1e-9);
    res_.add("trace.certify_plain_s", static_cast<double>(ns) * 1e-9);
    res_.add("trace.certify_staged_s", static_cast<double>(t3 - t0) * 1e-9);
    res_.check(staged.verdict == r.verdict && staged.traps == r.traps,
               "staged certification disagrees with checkDeadlockFreedom");
    if (call != 0) return;
    const auto diff = [&](const char* name) {
      return static_cast<double>(after.counter(name) - before.counter(name));
    };
    res_.counts["verify.traps"] = static_cast<double>(staged.traps.size());
    res_.counts["verify.rounds"] = diff("dfinder.rounds");
    res_.counts["verify.trap_queries"] = diff("dfinder.trap.queries");
    res_.counts["sat.decisions"] = static_cast<double>(staged.satDecisions);
    res_.counts["sat.conflicts"] = static_cast<double>(staged.satConflicts);
    res_.counts["sat.propagations"] = diff("sat.propagations");
    res_.counts["sat.vars"] = static_cast<double>(staged.booleanVariables);
    // Inline and dispatched tasks are counted apart.
    const double inlineTasks = diff("verify.parallel.inline_tasks");
    res_.counts["verify.parallel_inline_ratio"] =
        ratio(inlineTasks, inlineTasks + diff("verify.parallel.tasks"));
  }

  // recertify_s: on a copy of the warmed-up verifier, remove the next
  // connectors of the edit order and re-add each.
  void edits(std::size_t round) {
    if (spans_.active() && round % 4 == 3) {
      SpanScope s(spans_, "verify.incremental_ctor");
      const std::uint64_t c0 = nowNs();
      verify::IncrementalVerifier fresh(*vsys_);
      res_.add("verify.incremental_ctor_s", static_cast<double>(nowNs() - c0) * 1e-9);
    }
    verify::IncrementalVerifier v = *verifier_;
    double trapsBefore = 0, kept = 0, fresh = 0;
    for (std::size_t e = 0; e < editsPerRound_; ++e) {
      const std::size_t i = connectorIndex(v, nextEdit());
      const Connector c = v.system().connector(i);
      trapsBefore += static_cast<double>(v.traps().size());
      verify::IncrementalVerifier::StepResult rm, add;
      {
        SpanScope s(spans_, "verify.remove_connector");
        const std::uint64_t t0 = nowNs();
        rm = v.removeConnector(i);
        res_.add("recertify_s", static_cast<double>(nowNs() - t0) * 1e-9);
      }
      if (e == 0 && round % 4 == 0) {
        SpanScope s(spans_, "check.remove_vs_scratch");
        const verify::DFinderResult full = verify::checkDeadlockFreedom(v.system());
        res_.check(full.verdict == rm.verdict,
                   "incremental removal verdict differs from a from-scratch check");
      }
      trapsBefore += static_cast<double>(v.traps().size());
      {
        SpanScope s(spans_, "verify.add_connector");
        const std::uint64_t t0 = nowNs();
        add = v.addConnector(c);
        res_.add("recertify_s", static_cast<double>(nowNs() - t0) * 1e-9);
      }
      res_.check(add.verdict == verify::DFinderVerdict::kDeadlockFree,
                 "re-added connector: verdict not deadlock-free");
      kept += static_cast<double>(rm.trapsKept + add.trapsKept);
      fresh += static_cast<double>(rm.trapsNew + add.trapsNew);
    }
    if (round == 0 && spans_.active()) {
      res_.counts["verify.recert_traps_kept_ratio"] = ratio(kept, trapsBefore);
      res_.counts["verify.recert_traps_new_per_edit"] =
          fresh / (2.0 * static_cast<double>(editsPerRound_));
    }
  }

  void report() {
    const std::string problem = configurationProblem();
    if (!problem.empty()) {
      std::cerr << "perfbench: not the shipped configuration (" << problem
                << "); every operation counts as failed\n";
      res_.failed = res_.attempted;
      res_.failures.push_back(problem);
    }
    for (const std::string& f : res_.failures) std::cerr << "perfbench: FAILED: " << f << "\n";

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::ostringstream prov;
    prov << "{\"provenance\":{\"workload\":\"" << w_.name << "\",\"seed\":" << args_.seed
         << ",\"seconds\":" << args_.seconds << ",\"trace\":" << (args_.trace ? 1 : 0)
         << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu_model\":\""
         << jsonEscape(args_.cpuModel) << "\",\"git_sha\":\"" << jsonEscape(args_.gitSha)
         << "\",\"git_dirty\":\"" << jsonEscape(args_.gitDirty) << "\",\"build_type\":\""
         << PERFBENCH_BUILD_TYPE << "\",\"shards\":" << kShards << ",\"rounds\":" << rounds_
         << ",\"instances\":" << sys_->instanceCount()
         << ",\"connectors\":" << sys_->connectorCount()
         << ",\"verify_instances\":" << vsys_->instanceCount() << ",\"text_bytes\":"
         << text_.size() << ",\"samples\":{";
    bool first = true;
    for (const auto& [name, v] : res_.samples) {
      prov << (first ? "" : ",") << "\"" << name << "\":" << v.size();
      first = false;
    }
    prov << "}}}";
    std::cout << prov.str() << "\n";
    writeSamples();

    std::vector<std::tuple<std::string, double, const char*>> metrics;
    if (!args_.trace) {
      metrics = {
          // Means, not medians: the host switches between a fast and a
          // slow state (2x apart) every few seconds, and a median over
          // such a mix jumps between the two modes. Across 10 runs the
          // mean spread at most 0.15 (IQR/median); the median up to 0.24.
          // Seq windows are equally long, so their harmonic mean is total
          // steps over total time.
          {"setup_s", mean(res_.samples["setup_s"]), "s"},
          {"seq_steps_per_s", harmonicMean(res_.samples["seq_steps_per_s"]), "1/s"},
          {"certify_s", mean(res_.samples["certify_s"]), "s"},
          {"recertify_s", mean(res_.samples["recertify_s"]), "s"},
          {"recertify_p90_s", percentile(res_.samples["recertify_s"], 0.9), "s"},
          {"peak_rss_mb", rssMb, "MB"},
      };
    } else {
      for (const char* n : {"frontends.parse_s", "engine.seq_ctor_s", "shard.partition_s",
                            "shard.engine_ctor_s", "core.cache_reset_s", "verify.invariants_s",
                            "verify.net_s", "verify.refine_s", "verify.incremental_ctor_s"}) {
        metrics.emplace_back(n, res_.med(n), "s");
      }
      // Not end to end: four barrier-synchronised threads on a shared VM
      // lose whole windows, for tens of seconds, whenever the host takes
      // one of their CPUs (across-run IQR/median 0.69 on philo).
      metrics.emplace_back("shard.steps_per_s", res_.med("shard.steps_per_s"), "1/s");
      for (const char* n : {"core.cache_update_ns", "core.execute_ns", "engine.pick_ns",
                            "shard.local_ns_per_step", "shard.plan_ns_per_epoch",
                            "shard.cross_ns_per_epoch", "shard.local_ns_per_epoch",
                            "shard.idle_ns_per_epoch",
                            "shard.lock_wait_ns_per_epoch"}) {
        metrics.emplace_back(n, res_.med(n), "ns");
      }
      const double replica = res_.med("trace.replica_ns_per_step");
      metrics.emplace_back("engine.loop_self_ns",
                           replica - res_.med("engine.pick_ns") - res_.med("core.execute_ns") -
                               res_.med("core.cache_update_ns"),
                           "ns");
      for (const auto& [name, v] : res_.counts) {
        const bool ratioMetric = name.find("ratio") != std::string::npos ||
                                 name.find("mean") != std::string::npos ||
                                 name.find("per_") != std::string::npos ||
                                 name.find("imbalance") != std::string::npos;
        metrics.emplace_back(name, v, ratioMetric ? "ratio" : "count");
      }
      metrics.emplace_back("trace.overhead_ratio",
                           ratio(replica, res_.med("trace.seq_ns_per_step")), "ratio");
      metrics.emplace_back("trace.overhead_ratio.certify_s",
                           ratio(res_.med("trace.certify_staged_s"),
                                 res_.med("trace.certify_plain_s")),
                           "ratio");
      metrics.emplace_back("trace.overhead_ratio.sharded",
                           ratio(res_.med("trace.sharded_sink_off"),
                                 res_.med("trace.sharded_sink_on")),
                           "ratio");
      writeTrace();
    }

    std::ostringstream out;
    char buf[128];
    out << "{\"correct\":" << (res_.failed == 0 ? "true" : "false")
        << ",\"attempted\":" << res_.attempted << ",\"failed\":" << res_.failed
        << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << (i ? "," : "") << "\"" << name << "\":{\"value\":" << buf << ",\"unit\":\"" << unit
          << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

  /// Every timing sample in the order taken, for studying drift.
  void writeSamples() const {
    std::ofstream f(args_.outDir + "/" + w_.name + "-seed" + std::to_string(args_.seed) +
                    "-trace" + (args_.trace ? "1" : "0") + "-samples.json");
    f << "{";
    bool first = true;
    char buf[64];
    for (const auto& [name, v] : res_.samples) {
      f << (first ? "" : ",") << "\n\"" << name << "\":[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.9g", v[i]);
        f << (i ? "," : "") << buf;
      }
      f << "]";
      first = false;
    }
    f << "\n}\n";
  }

  void writeTrace() {
    const std::string base = args_.outDir + "/" + w_.name + "-seed" + std::to_string(args_.seed);
    std::ofstream f(base + "-spans.json");
    spans_.write(f);
    std::ofstream self(base + "-self.json");
    self << "{";
    bool first = true;
    for (const auto& [name, s] : spans_.selfSeconds()) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", s);
      self << (first ? "" : ",") << "\"" << name << "\":" << buf;
      first = false;
    }
    self << "}\n";
  }

  const Args& args_;
  const Workload& w_;
  SpanLog spans_;
  Results res_;
  std::string text_;
  std::optional<System> sys_, vsys_;
  std::optional<StateCheck> check_;
  RandomPolicy seqPolicy_;
  std::optional<SequentialEngine> seq_;
  std::optional<shard::ShardedEngine> sharded_;
  GlobalState seqState_;
  std::optional<verify::IncrementalVerifier> verifier_;
  std::vector<std::string> editOrder_;
  std::size_t editCursor_ = 0;
  std::size_t editsPerRound_ = 0;
  std::size_t rounds_ = 0;
  std::size_t seqWindows_ = 0, shardedWindows_ = 0, certifies_ = 0;
};

int usage() {
  std::cerr << "usage: perfbench --workload philo|ring|skewed --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--git-sha SHA] [--git-dirty 0|1] [--cpu-model M]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = v == "1";
      else if (a == "--out") args.outDir = v;
      else if (a == "--git-sha") args.gitSha = v;
      else if (a == "--git-dirty") args.gitDirty = v;
      else if (a == "--cpu-model") args.cpuModel = v;
      else return usage();
    }
    for (const Workload& w : workloads()) {
      if (args.workload == w.name) {
        Bench(args, w).run();
        return 0;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

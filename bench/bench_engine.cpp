// E11 — single-thread vs multithread engine (Section 5.6: "one engine for
// real-time single-thread and one for multi-thread execution").
//
// The multithread engine pays a coordination cost (offer/execute message
// rounds through worker threads) and wins only when component actions
// carry real computation (workGrain) and interactions are independent.
// Shape: sequential wins at grain 0; multithread overtakes as grain grows
// on the independent-pairs workload; on fully conflicting workloads the
// batch size is 1 and multithread never wins.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analyze/analyze.hpp"
#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"

namespace {

using namespace cbip;

/// n independent rendezvous pairs (maximally parallel workload).
System independentPairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("P");
  const int l = t->addLocation("l");
  const int n = t->addVariable("n", 0);
  const int p = t->addPort("p");
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    sys.addConnector(rendezvous("sync" + std::to_string(i), {PortRef{a, 0}, PortRef{b, 0}}));
  }
  sys.validate();
  return sys;
}

void spinGrain(std::uint64_t grain) {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < grain; ++i) sink = sink + i;
}

void BM_SequentialEngine(benchmark::State& state) {
  const System sys = independentPairs(8);
  const std::uint64_t grain = static_cast<std::uint64_t>(state.range(0));
  RandomPolicy policy(3);
  for (auto _ : state) {
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    // Model the same computation grain the MT workers would run: both
    // participants' action bodies execute serially here.
    opt.stopWhen = [grain](const GlobalState&) {
      spinGrain(2 * grain);
      return false;
    };
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngine)->Arg(0)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_MultiThreadEngine(benchmark::State& state) {
  const System sys = independentPairs(8);
  const std::uint64_t grain = static_cast<std::uint64_t>(state.range(0));
  RandomPolicy policy(3);
  for (auto _ : state) {
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    opt.workGrain = grain;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_MultiThreadEngine)->Arg(0)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Guard/action-heavy workload: n counter pairs whose every transition
/// carries a non-trivial guard and a three-assignment action block, so the
/// per-step cost is dominated by data-sublanguage evaluation.
System dataHeavyPairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("D");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int n = t->addVariable("n", 0);
  const int p = t->addPort("p", {x});
  t->addTransition(
      l, p,
      Expr::local(x) + Expr::local(acc) < Expr::lit(1'000'000) &&
          Expr::local(n) % Expr::lit(7) != Expr::lit(3),
      {expr::Assign{expr::VarRef{0, acc},
                    (Expr::local(acc) * Expr::lit(3) + Expr::local(x)) % Expr::lit(257)},
       expr::Assign{expr::VarRef{0, x},
                    Expr::max(Expr::local(x), Expr::abs(Expr::local(acc) - Expr::local(n)))},
       expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}},
      l);
  // A fallback transition keeps the system live when the first guard
  // flips off (n % 7 == 3).
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    Connector c("sync" + std::to_string(i));
    const int ea = c.addSynchron(PortRef{a, 0});
    const int eb = c.addSynchron(PortRef{b, 0});
    c.setGuard(Expr::var(ea, 0) + Expr::var(eb, 0) > Expr::lit(0));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

/// Engine-step cost with the bytecode evaluator (arg 1) vs the
/// tree-walking interpreter escape hatch (arg 0); identical traces.
void BM_SequentialEngineCompiledVsInterpreted(benchmark::State& state) {
  const System sys = dataHeavyPairs(8);
  const bool compiled = state.range(0) != 0;
  const bool saved = expr::compilationEnabled();
  expr::setCompilationEnabled(compiled);
  RandomPolicy policy(3);
  for (auto _ : state) {
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  expr::setCompilationEnabled(saved);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngineCompiledVsInterpreted)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Tau-heavy workload: every interaction arms a cascade of internal
/// (tau) transitions whose guards and actions share arithmetic — the
/// guard-then-fire shape runInternal dispatches, and therefore the
/// workload where fusing guard + action block into one program (single
/// dispatch, cross-boundary CSE) pays directly.
System tauCascadePairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("Tau");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int k = t->addVariable("k", 0);
  const int p = t->addPort("p", {x});
  // The sync transition arms the cascade.
  t->addTransition(l, p, Expr::top(), {expr::Assign{expr::VarRef{0, k}, Expr::lit(8)}}, l);
  // Tau 1: guard and action share (acc * 7 + x) % 13.
  const Expr mix = (Expr::local(acc) * Expr::lit(7) + Expr::local(x)) % Expr::lit(13);
  t->addTransition(
      l, kInternalPort, Expr::local(k) > Expr::lit(0) && mix != Expr::lit(5),
      {expr::Assign{expr::VarRef{0, acc}, mix + Expr::local(acc) % Expr::lit(101)},
       expr::Assign{expr::VarRef{0, x}, Expr::local(x) + Expr::lit(1)},
       expr::Assign{expr::VarRef{0, k}, Expr::local(k) - Expr::lit(1)}},
      l);
  // Tau 2: fallback keeps the cascade draining when tau 1's guard flips.
  t->addTransition(l, kInternalPort, Expr::local(k) > Expr::lit(0),
                   {expr::Assign{expr::VarRef{0, k}, Expr::local(k) - Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    sys.addConnector(rendezvous("sync" + std::to_string(i), {PortRef{a, 0}, PortRef{b, 0}}));
  }
  sys.validate();
  return sys;
}

/// Engine-step cost with fused guard+action dispatch (arg 1) vs the
/// unfused guard-program + per-action-program dispatch (arg 0);
/// identical traces. Every step triggers two 8-deep tau cascades, so the
/// ratio isolates the fused tryFire / action-block win.
void BM_SequentialEngineFusedVsUnfused(benchmark::State& state) {
  const System sys = tauCascadePairs(8);
  const bool fused = state.range(0) != 0;
  const bool saved = expr::fusionEnabled();
  expr::setFusionEnabled(fused);
  RandomPolicy policy(3);
  // Engine constructed once: the measurement is the step loop (scan +
  // dispatch), not per-run validation.
  SequentialEngine engine(sys, policy);
  for (auto _ : state) {
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  expr::setFusionEnabled(saved);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngineFusedVsUnfused)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Analysis-friendly workload: every live guard and action is full of
/// literal-divisor div/mod sites (relaxed to unchecked opcodes at build
/// time), and each scanned location carries arithmetically dead port
/// transitions (x % 4 > 10) whose guard programs the analyzer folds to a
/// single constant push.
System analyzablePairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("A");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int p = t->addPort("p", {x});
  t->addTransition(
      l, p, Expr::local(x) % Expr::lit(64) < Expr::lit(60),
      {expr::Assign{expr::VarRef{0, acc},
                    (Expr::local(acc) * Expr::lit(3) + Expr::local(x) / Expr::lit(2)) %
                        Expr::lit(257)},
       expr::Assign{expr::VarRef{0, x},
                    (Expr::local(x) + Expr::local(acc) / Expr::lit(4)) % Expr::lit(101) +
                        Expr::lit(1)}},
      l);
  // Fallback keeps the pair live when the main guard flips off.
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, x}, Expr::local(x) + Expr::lit(1)}}, l);
  // Dead transitions, evaluated by every enabled-set scan when unpruned.
  for (int d = 0; d < 4; ++d) {
    t->addTransition(l, p,
                     (Expr::local(x) + Expr::lit(d)) % Expr::lit(4) > Expr::lit(10),
                     {expr::Assign{expr::VarRef{0, x}, Expr::lit(0)}}, l);
  }
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    Connector c("sync" + std::to_string(i));
    const int ea = c.addSynchron(PortRef{a, 0});
    const int eb = c.addSynchron(PortRef{b, 0});
    c.setGuard((Expr::var(ea, 0) + Expr::var(eb, 0)) % Expr::lit(7) != Expr::lit(5));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

/// Engine-step cost with analysis-guided build-time pruning (arg 1:
/// relaxed division checks, constant-folded dead guards) vs the plain
/// compiled build (arg 0); identical traces. The system is built inside
/// the toggle because the analysis runs when a type first compiles.
void BM_SequentialEngineAnalyzedVsUnanalyzed(benchmark::State& state) {
  const bool analyzed = state.range(0) != 0;
  const bool saved = expr::analysisEnabled();
  expr::setAnalysisEnabled(analyzed);
  const System sys = analyzablePairs(8);
  RandomPolicy policy(3);
  SequentialEngine engine(sys, policy);
  for (auto _ : state) {
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  expr::setAnalysisEnabled(saved);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngineAnalyzedVsUnanalyzed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Enabled-set-scan throughput, batched (arg1 = 1, CompiledConnector::
/// scanEnabled over one gathered frame) vs scalar (arg1 = 0, per-end
/// vectors + per-mask end loop), full recompute of every connector at
/// arg0 = 128 / 256 components. items/s = connector scans per second;
/// the acceptance shape for this PR is >= 1.5x batched over scalar.
void BM_EnabledScan(benchmark::State& state) {
  const System sys = models::philosophersAtomic(static_cast<int>(state.range(0)) / 2);
  const bool saved = batchScanEnabled();
  setBatchScanEnabled(state.range(1) != 0);
  sys.warmIndices();
  const GlobalState g = initialState(sys);
  EnabledInteractionCache cache(sys);
  for (auto _ : state) {
    cache.reset(g);
    benchmark::DoNotOptimize(cache.enabled().size());
  }
  setBatchScanEnabled(saved);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sys.connectorCount()));
}
BENCHMARK(BM_EnabledScan)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

/// Same scan comparison on a guard-heavy shape (every transition and
/// connector carries a non-trivial guard), where the batch pass spends
/// its time in ExprProgram::runBatch rather than in list bookkeeping.
void BM_EnabledScanDataHeavy(benchmark::State& state) {
  const System sys = dataHeavyPairs(static_cast<int>(state.range(0)) / 2);
  const bool saved = batchScanEnabled();
  setBatchScanEnabled(state.range(1) != 0);
  sys.warmIndices();
  const GlobalState g = initialState(sys);
  EnabledInteractionCache cache(sys);
  for (auto _ : state) {
    cache.reset(g);
    benchmark::DoNotOptimize(cache.enabled().size());
  }
  setBatchScanEnabled(saved);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sys.connectorCount()));
}
BENCHMARK(BM_EnabledScanDataHeavy)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

void BM_MultiThreadConflicting(benchmark::State& state) {
  // Philosophers: neighbouring interactions conflict, batches shrink.
  const System sys = models::philosophersAtomic(8);
  RandomPolicy policy(3);
  for (auto _ : state) {
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 300;
    opt.recordTrace = false;
    opt.workGrain = static_cast<std::uint64_t>(state.range(0));
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_MultiThreadConflicting)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

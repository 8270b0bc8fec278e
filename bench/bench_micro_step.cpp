// Microbenchmarks of the per-round kernels (google-benchmark): scheduled
// flow computation, rounding schemes, whole discrete/continuous steps,
// thread-pool scaling, the λ solver and the CSR graph build. Reports
// edges/second so kernel regressions surface.
#include <benchmark/benchmark.h>

#include "dlb.hpp"
#include "reference_kernels.hpp"

namespace {

using namespace dlb;

diffusion_config make_config(const graph& g, scheme_params scheme)
{
    return {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
            speed_profile::uniform(g.num_nodes()), scheme};
}

const graph& torus_for(std::int64_t side)
{
    static std::map<std::int64_t, graph> cache;
    auto [it, inserted] = cache.try_emplace(side);
    if (inserted)
        it->second = make_torus_2d(static_cast<node_id>(side),
                                   static_cast<node_id>(side));
    return it->second;
}

const graph& hypercube_for(std::int64_t dimension)
{
    static std::map<std::int64_t, graph> cache;
    auto [it, inserted] = cache.try_emplace(dimension);
    if (inserted) it->second = make_hypercube(static_cast<int>(dimension));
    return it->second;
}

/// Rounds each step benchmark's engine runs before its snapshot.
constexpr std::int64_t kWarmRounds = 100;

/// Times `proc`'s step from one fixed state: the engine runs kWarmRounds
/// rounds and is snapshotted, and every timed step starts from that
/// snapshot, restored with the timer paused. Two builds then time the same
/// round, however many iterations the library picks.
template <class Snapshot, class Process>
void time_warmed_steps(benchmark::State& state, Process& proc, const graph& g)
{
    proc.run(kWarmRounds);
    Snapshot snapshot;
    proc.save_checkpoint(snapshot);
    for (auto _ : state) {
        state.PauseTiming();
        proc.restore_checkpoint(snapshot);
        state.ResumeTiming();
        proc.step();
    }
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}

void bm_discrete_step_fos(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    discrete_process proc(make_config(g, fos_scheme()),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1);
    time_warmed_steps<discrete_engine_state>(state, proc, g);
}
BENCHMARK(bm_discrete_step_fos)->Arg(64)->Arg(128)->Arg(256);

/// The whole SOS round on the 2-D torus (the degree-4 kernels; Arg = side)
/// and on the hypercube (the generic-degree kernels; Arg = dimension).
void bm_discrete_step_sos(benchmark::State& state, bool hypercube)
{
    const auto size = state.range(0);
    const graph& g = hypercube ? hypercube_for(size) : torus_for(size);
    const double beta = beta_opt(
        hypercube ? hypercube_lambda(static_cast<int>(size))
                  : torus_2d_lambda(static_cast<node_id>(size),
                                    static_cast<node_id>(size)));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1);
    time_warmed_steps<discrete_engine_state>(state, proc, g);
}
BENCHMARK_CAPTURE(bm_discrete_step_sos, torus, false)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(bm_discrete_step_sos, hypercube, true)->Arg(12);

void bm_continuous_step_sos(benchmark::State& state)
{
    const graph& g = torus_for(state.range(0));
    const double beta = beta_opt(torus_2d_lambda(
        static_cast<node_id>(state.range(0)), static_cast<node_id>(state.range(0))));
    continuous_process proc(make_config(g, sos_scheme(beta)),
                            to_continuous(point_load(g.num_nodes(), 0,
                                                     g.num_nodes() * 1000LL)));
    time_warmed_steps<continuous_engine_state>(state, proc, g);
}
BENCHMARK(bm_continuous_step_sos)->Arg(128)->Arg(256);

// --- kernel benchmarks: the library kernels vs the reference ones --------

/// Scheduled-flow state frozen from a warmed-up engine, so the kernels see
/// a realistic mid-run distribution instead of a synthetic one. The
/// reference kernels take their own per-half-edge alpha.
struct kernel_fixture {
    const graph& g;
    alpha_weights alpha;
    std::vector<double> reference_alpha;
    scheme_params scheme;
    std::vector<double> x;
    std::vector<double> prev;
    std::vector<double> scheduled;
    std::vector<std::int64_t> flows;

    kernel_fixture(const graph& graph_, double lambda)
        : g(graph_),
          alpha(make_alpha(g, alpha_policy::max_degree_plus_one)),
          reference_alpha(alpha_reference(g)),
          scheme(sos_scheme(beta_opt(lambda)))
    {
        discrete_process proc(make_config(g, scheme),
                              point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                              rounding_kind::randomized, 1);
        for (int i = 0; i < 599; ++i) proc.step();
        scheduled.resize(static_cast<std::size_t>(g.num_half_edges()));
        proc.capture_scheduled_flows(scheduled);
        proc.step();
        x.assign(proc.load().begin(), proc.load().end());
        prev.resize(scheduled.size());
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            prev[h] = static_cast<double>(proc.previous_flows()[h]);
        flows.resize(prev.size());
    }
};

kernel_fixture torus_fixture(std::int64_t side)
{
    return {torus_for(side), torus_2d_lambda(static_cast<node_id>(side),
                                             static_cast<node_id>(side))};
}

void bm_scheduled_flows(benchmark::State& state)
{
    const kernel_fixture fx = torus_fixture(state.range(0));
    std::vector<double> out(fx.prev.size());
    for (auto _ : state)
        scheduled_flows(fx.g, fx.alpha, fx.scheme, 5, fx.x, fx.prev, out,
                        default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_scheduled_flows)->Arg(128)->Arg(256);

void bm_scheduled_flows_reference(benchmark::State& state)
{
    const kernel_fixture fx = torus_fixture(state.range(0));
    std::vector<double> out(fx.prev.size());
    for (auto _ : state)
        scheduled_flows_reference(fx.g, fx.reference_alpha, fx.scheme, 5, fx.x,
                                  fx.prev, out, default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_scheduled_flows_reference)->Arg(128)->Arg(256);

void bm_round_flows(benchmark::State& state)
{
    kernel_fixture fx = torus_fixture(state.range(0));
    std::int64_t round = 0;
    for (auto _ : state)
        round_flows(fx.g, rounding_kind::randomized, fx.scheduled, 3, round++,
                    fx.flows, default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_round_flows)->Arg(256);

void bm_round_flows_reference(benchmark::State& state)
{
    kernel_fixture fx = torus_fixture(state.range(0));
    std::int64_t round = 0;
    for (auto _ : state)
        round_flows_reference(fx.g, rounding_kind::randomized, fx.scheduled, 3,
                              round++, fx.flows, default_executor());
    state.SetItemsProcessed(state.iterations() * fx.g.num_edges());
}
BENCHMARK(bm_round_flows_reference)->Arg(256);

/// The full pre-refactor round pipeline (two-sided kernel, owner+mirror
/// rounding, separate apply / min-scan / int->double conversion sweeps),
/// for an in-binary apples-to-apples baseline of the engine step.
void bm_discrete_step_sos_reference(benchmark::State& state)
{
    kernel_fixture fx = torus_fixture(state.range(0));
    const graph& g = fx.g;
    std::vector<std::int64_t> load(fx.x.begin(), fx.x.end());
    std::vector<double> x(g.num_nodes()), transient(g.num_nodes());
    std::vector<double> prevd = fx.prev;
    std::vector<std::int64_t> flows(prevd.size()), previ(prevd.size());
    std::int64_t round = 600;
    for (auto _ : state) {
        for (node_id v = 0; v < g.num_nodes(); ++v)
            x[v] = static_cast<double>(load[v]);
        scheduled_flows_reference(g, fx.reference_alpha, fx.scheme, 5, x, prevd,
                                  fx.scheduled, default_executor());
        round_flows_reference(g, rounding_kind::randomized, fx.scheduled, 1,
                              round++, flows, default_executor());
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            std::int64_t net = 0;
            std::int64_t positive = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h) {
                net += flows[h];
                if (flows[h] > 0) positive += flows[h];
            }
            transient[v] = static_cast<double>(load[v] - positive);
            load[v] -= net;
        }
        double min_end = load.front() * 1.0, min_tr = transient.front();
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            min_end = std::min(min_end, static_cast<double>(load[v]));
            min_tr = std::min(min_tr, transient[v]);
        }
        benchmark::DoNotOptimize(min_end + min_tr);
        std::swap(previ, flows);
        for (std::size_t h = 0; h < previ.size(); ++h)
            prevd[h] = static_cast<double>(previ[h]);
    }
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(bm_discrete_step_sos_reference)->Arg(256);

/// round_flows on fixed random flows: on the 128^2 torus (the degree-4
/// kernels) and on the 2^12 hypercube (the generic-degree ones).
void bm_rounding(benchmark::State& state, rounding_kind kind, bool hypercube)
{
    const graph& g = hypercube ? hypercube_for(12) : torus_for(128);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    xoshiro256ss rng{7};
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (v < g.head(h)) {
                scheduled[h] = rng.next_double() * 6.0 - 3.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }
    std::vector<std::int64_t> out(scheduled.size());
    std::int64_t round = 0;
    for (auto _ : state)
        round_flows(g, kind, scheduled, 3, round++, out, default_executor());
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK_CAPTURE(bm_rounding, randomized, rounding_kind::randomized, false);
BENCHMARK_CAPTURE(bm_rounding, floor, rounding_kind::floor, false);
BENCHMARK_CAPTURE(bm_rounding, nearest, rounding_kind::nearest, false);
BENCHMARK_CAPTURE(bm_rounding, bernoulli, rounding_kind::bernoulli_edge, false);
BENCHMARK_CAPTURE(bm_rounding, randomized_hypercube, rounding_kind::randomized,
                  true);
BENCHMARK_CAPTURE(bm_rounding, bernoulli_hypercube,
                  rounding_kind::bernoulli_edge, true);

void bm_step_threads(benchmark::State& state)
{
    const graph& g = torus_for(512);
    thread_pool pool(static_cast<unsigned>(state.range(0)));
    const double beta = beta_opt(torus_2d_lambda(512, 512));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL),
                          rounding_kind::randomized, 1,
                          negative_load_policy::allow, &pool);
    time_warmed_steps<discrete_engine_state>(state, proc, g);
}
BENCHMARK(bm_step_threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void bm_cumulative_step(benchmark::State& state)
{
    const graph& g = torus_for(128);
    cumulative_process proc(make_config(g, fos_scheme()),
                            point_load(g.num_nodes(), 0, g.num_nodes() * 1000LL));
    time_warmed_steps<cumulative_engine_state>(state, proc, g);
}
BENCHMARK(bm_cumulative_step);

void bm_torus_projection(benchmark::State& state)
{
    const auto side = static_cast<node_id>(state.range(0));
    const torus_fourier_basis basis(side, side);
    std::vector<double> load(static_cast<std::size_t>(side) * side);
    xoshiro256ss rng{5};
    for (auto& v : load) v = rng.next_double();
    for (auto _ : state) benchmark::DoNotOptimize(basis.project(load));
    state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(bm_torus_projection)->Arg(64)->Arg(100);

/// Times `build` on the graph's own canonical edge list: on the Arg x Arg
/// torus, or on the 2^Arg hypercube.
template <class Build>
void time_graph_build(benchmark::State& state, bool hypercube, Build build)
{
    const auto size = state.range(0);
    const graph& g = hypercube ? hypercube_for(size) : torus_for(size);
    const std::vector<edge> edges = g.edge_list();
    for (auto _ : state) benchmark::DoNotOptimize(build(g.num_nodes(), edges));
    state.SetItemsProcessed(state.iterations() * g.num_edges());
}

void bm_graph_build(benchmark::State& state, bool hypercube)
{
    time_graph_build(state, hypercube, [](node_id n, std::span<const edge> edges) {
        return graph::from_edge_list(n, edges);
    });
}
BENCHMARK_CAPTURE(bm_graph_build, torus, false)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_graph_build, hypercube, true)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void bm_graph_build_reference(benchmark::State& state, bool hypercube)
{
    time_graph_build(state, hypercube, [](node_id n, std::span<const edge> edges) {
        return build_csr_reference(n, edges, false);
    });
}
BENCHMARK_CAPTURE(bm_graph_build_reference, torus, false)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_graph_build_reference, hypercube, true)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// compute_lambda on the Arg x Arg torus, the solver alone (no closed
/// form): under uniform speeds, and under zipf speeds from a fixed seed,
/// whose symmetrization has unequal weights. The `steps` and `applies`
/// counters are one solve's Lanczos steps and operator applications.
void bm_lanczos_lambda(benchmark::State& state, bool zipf)
{
    const graph& g = torus_for(state.range(0));
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = zipf ? speed_profile::zipf(g.num_nodes(), 1.0, 8.0, 23)
                             : speed_profile::uniform(g.num_nodes());
    lanczos_result solved;
    for (auto _ : state)
        benchmark::DoNotOptimize(compute_lambda(g, alpha, speeds, &solved));
    state.counters["steps"] = solved.iterations;
    state.counters["applies"] = solved.applies;
}
BENCHMARK_CAPTURE(bm_lanczos_lambda, uniform, false)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_lanczos_lambda, zipf, true)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

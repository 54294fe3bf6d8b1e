#include "core/eval_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

namespace {

/** Batch slots of one kernel pass under a tail constraint. Each slot
 * carries its own response histogram, whose update (a log10 and a
 * bucket increment) dominates a tail step. One slot keeps the tail
 * scratch at one histogram per lane, but it is not the fastest width:
 * on a 4000-job log (4-vCPU Xeon at 2.1 GHz, best of 7 x 20
 * decisions) 1, 4 and 16 slots took 6.7, 5.7 and 5.8 ms per decision;
 * widening it is an open item (ROADMAP). The mean metric needs no
 * histogram and replays a whole chunk in one pass. */
constexpr std::size_t tailPass = 1;

} // namespace

PolicyEvalEngine::PolicyEvalEngine(const PlatformModel &platform,
                                   ServiceScaling scaling,
                                   PolicySpace space, QosConstraint qos,
                                   EvalEngineOptions options)
    : _platform(platform), _scaling(scaling), _space(std::move(space)),
      _qos(qos), _options(options)
{
    fatalIf(_space.plans.empty() || _space.frequencies.empty(),
            "PolicyEvalEngine: empty policy space");
    for (double f : _space.frequencies) {
        fatalIf(f <= 0.0 || f > 1.0,
                "PolicyEvalEngine: frequencies must be in (0, 1]");
    }
    if (_options.pruned) {
        for (std::size_t i = 1; i < _space.frequencies.size(); ++i) {
            fatalIf(_space.frequencies[i] <= _space.frequencies[i - 1],
                    "PolicyEvalEngine: pruned search needs a strictly "
                    "increasing frequency grid");
        }
    }

    // Materialize the whole (plan, frequency) cross product once; the
    // space is static, so every subsequent selection reuses it.
    _materialized.reserve(_space.size());
    for (const SleepPlan &plan : _space.plans) {
        for (double f : _space.frequencies)
            _materialized.emplace_back(plan, _platform, f);
    }

    for (double f : _space.frequencies) {
        _factor.push_back(_scaling.factor(f));
        _activePower.push_back(_platform.activePower(f));
    }

    if (_options.threads != 1)
        _pool = std::make_unique<ThreadPool>(_options.threads);
    const std::size_t lanes = _pool ? _pool->size() : 1;
    const std::size_t capacity = _space.size();
    const std::size_t tables = capacity * MaterializedPlan::maxStages;
    _scratch.resize(lanes);
    for (KernelScratch &scratch : _scratch) {
        scratch.enterAfter.resize(tables);
        scratch.cumEnergy.resize(tables);
        scratch.power.resize(tables);
        scratch.wake.resize(tables);
        scratch.factor.resize(capacity);
        scratch.activePower.resize(capacity);
        scratch.nextFree.resize(capacity);
        scratch.energy.resize(capacity);
        scratch.mean.resize(capacity);
        // The configuration every simulated window records with, so
        // kernel percentiles equal SimStats percentiles.
        scratch.tails.assign(tailPass, SimStats{}.responseHistogram);
    }
    _outcomes.resize(capacity);
    _candidates.reserve(capacity);
    _boundaries.resize(_space.plans.size());
}

const MaterializedPlan &
PolicyEvalEngine::materialized(std::size_t plan_idx,
                               std::size_t freq_idx) const
{
    fatalIf(plan_idx >= _space.plans.size() ||
                freq_idx >= _space.frequencies.size(),
            "PolicyEvalEngine::materialized: index out of range");
    return _materialized[plan_idx * _space.frequencies.size() + freq_idx];
}

double
PolicyEvalEngine::minStableFrequency(double rho) const
{
    // Stability needs µ f^a > λ, i.e. f > ρ^{1/a}; keep the paper's
    // +0.01 margin. Memory-bound work (a = 0) is stable at any f as long
    // as ρ < 1.
    const double margin = std::min(rho + 0.01, 0.999);
    if (_scaling.exponent == 0.0)
        return rho < 1.0 ? 0.0 : 1.0;
    return std::pow(margin, 1.0 / _scaling.exponent);
}

template <std::size_t Stages, bool Tail>
void
PolicyEvalEngine::replayPass(KernelScratch &scratch, const PreparedLog &log,
                             std::size_t lanes)
{
    const std::size_t stride = scratch.factor.size();
    const double *enter_after = scratch.enterAfter.data();
    const double *cum_energy = scratch.cumEnergy.data();
    const double *stage_power = scratch.power.data();
    const double *wake = scratch.wake.data();
    const double *factor = scratch.factor.data();
    const double *active_power = scratch.activePower.data();
    double *next_free = scratch.nextFree.data();
    double *energy = scratch.energy.data();
    double *mean = scratch.mean.data();
    QuantileHistogram *tails = scratch.tails.data();

    std::fill_n(next_free, lanes, 0.0);
    std::fill_n(energy, lanes, 0.0);
    std::fill_n(mean, lanes, 0.0);
    if constexpr (Tail) {
        for (std::size_t k = 0; k < lanes; ++k)
            tails[k].reset();
    }

    // The floating-point operations of ServerSim streaming the log from
    // an idle server at t = 0, in the same order, for every lane: the
    // outcomes are bit-identical to one streamed simulation per
    // candidate.
    const std::size_t jobs = log.count();
    for (std::size_t i = 0; i < jobs; ++i) {
        const double arrival = log.arrival[i];
        const double size = log.size[i];
        const double count = static_cast<double>(i + 1);
        for (std::size_t k = 0; k < lanes; ++k) {
            const double free_at = next_free[k];
            const bool idle = arrival >= free_at;
            const double gap = arrival - free_at;

            // The stage the arrival interrupts: the last one whose entry
            // delay `gap` reached (upper_bound over strictly increasing
            // delays; +inf padding never matches).
            double tau = enter_after[k];
            double joules_before = cum_energy[k];
            double watts = stage_power[k];
            double wake_latency = wake[k];
            for (std::size_t s = 1; s < Stages; ++s) {
                const std::size_t at = s * stride + k;
                const bool entered = enter_after[at] <= gap;
                tau = entered ? enter_after[at] : tau;
                joules_before = entered ? cum_energy[at] : joules_before;
                watts = entered ? stage_power[at] : watts;
                wake_latency = entered ? wake[at] : wake_latency;
            }

            // Both arms are computed and then selected, so the loop has
            // no branches and vectorizes.
            const double woken = arrival + wake_latency;
            const double start = idle ? woken : free_at;
            const double depart = start + size * factor[k];
            const double busy = depart - (idle ? arrival : free_at);
            // idleEnergy(gap) - idleEnergy(0), and idleEnergy(0) is +0.
            const double idle_energy =
                joules_before + watts * (gap - tau);
            const double charged =
                energy[k] + (gap > 0.0 ? idle_energy : 0.0);
            energy[k] = charged + active_power[k] * busy;
            next_free[k] = depart;

            const double response = depart - arrival;
            if constexpr (Tail)
                tails[k].add(response);
            else
                mean[k] += (response - mean[k]) / count;
        }
    }
}

void
PolicyEvalEngine::replayChunk(KernelScratch &scratch, const PreparedLog &log,
                              std::span<const std::uint32_t> candidates)
{
    constexpr std::size_t maxStages = MaterializedPlan::maxStages;
    const bool tail = _qos.metric() == QosMetric::TailResponse;
    const std::size_t stride = scratch.factor.size();
    const std::size_t freqs = _space.frequencies.size();
    const std::size_t width = tail ? tailPass : stride;

    for (std::size_t first = 0; first < candidates.size();
         first += width) {
        const std::size_t lanes =
            std::min(width, candidates.size() - first);
        std::size_t stages = 1;
        for (std::size_t k = 0; k < lanes; ++k) {
            const std::uint32_t index = candidates[first + k];
            const MaterializedPlan &plan = _materialized[index];
            stages = std::max(stages, plan.size());
            for (std::size_t s = 0; s < maxStages; ++s) {
                const std::size_t at = s * stride + k;
                const bool used = s < plan.size();
                scratch.enterAfter[at] =
                    used ? plan.enterAfter(s)
                         : std::numeric_limits<double>::infinity();
                scratch.cumEnergy[at] =
                    used ? plan.energyBeforeStage(s) : 0.0;
                scratch.power[at] = used ? plan.power(s) : 0.0;
                scratch.wake[at] = used ? plan.wakeLatency(s) : 0.0;
            }
            scratch.factor[k] = _factor[index % freqs];
            scratch.activePower[k] = _activePower[index % freqs];
        }

        // Single-stage batches (every plan of the standard space) skip
        // stage selection entirely.
        if (tail) {
            if (stages == 1)
                replayPass<1, true>(scratch, log, lanes);
            else
                replayPass<maxStages, true>(scratch, log, lanes);
        } else {
            if (stages == 1)
                replayPass<1, false>(scratch, log, lanes);
            else
                replayPass<maxStages, false>(scratch, log, lanes);
        }

        for (std::size_t k = 0; k < lanes; ++k) {
            Outcome &outcome = _outcomes[candidates[first + k]];
            // The window spans [0, last departure].
            const double span = scratch.nextFree[k];
            outcome.value.power =
                span > 0.0 ? scratch.energy[k] / span : 0.0;
            if (tail) {
                outcome.value.meanResponse = scratch.tails[k].mean();
                outcome.value.metric =
                    scratch.tails[k].percentile(_qos.quantile());
            } else {
                outcome.value.meanResponse = scratch.mean[k];
                outcome.value.metric = scratch.mean[k];
            }
            outcome.evaluated = true;
        }
    }
}

void
PolicyEvalEngine::replay(const PreparedLog &log,
                         std::span<const std::uint32_t> candidates)
{
    const std::size_t lanes =
        _pool ? std::min(_pool->size(), candidates.size()) : 1;
    if (lanes <= 1) {
        replayChunk(_scratch[0], log, candidates);
        return;
    }

    // Contiguous chunks, at most one per lane. Each chunk replays on
    // the scratch of its own index, not of the lane that runs it: the
    // pool hands items to lanes in any order, and a fixed chunk ->
    // scratch map keeps every scratch's response-histogram run the same
    // from one call to the next, so a repeated search reallocates
    // nothing. The captures fit std::function's small buffer, so the
    // fan-out allocates nothing.
    struct Fanout
    {
        const PreparedLog *log;
        std::span<const std::uint32_t> candidates;
        std::size_t chunk;
    };
    const std::size_t chunk = (candidates.size() + lanes - 1) / lanes;
    const Fanout fanout{&log, candidates, chunk};
    _pool->parallelFor(
        (candidates.size() + chunk - 1) / chunk,
        [this, &fanout](std::size_t item, std::size_t) {
            const std::size_t first = item * fanout.chunk;
            replayChunk(_scratch[item], *fanout.log,
                        fanout.candidates.subspan(
                            first, std::min(fanout.chunk,
                                            fanout.candidates.size() -
                                                first)));
        });
}

void
PolicyEvalEngine::characterize(const PreparedLog &log,
                               std::span<const std::uint32_t> candidates,
                               std::span<CandidateOutcome> outcomes)
{
    if (outcomes.size() != candidates.size())
        fatal("PolicyEvalEngine::characterize: one outcome slot per "
              "candidate");
    for (Outcome &outcome : _outcomes)
        outcome = Outcome{};
    for (const std::uint32_t index : candidates) {
        if (index >= _outcomes.size() || _outcomes[index].evaluated)
            fatal("PolicyEvalEngine::characterize: candidate index out "
                  "of range or listed twice");
        _outcomes[index].evaluated = true;
    }
    replay(log, candidates);
    for (std::size_t k = 0; k < candidates.size(); ++k)
        outcomes[k] = _outcomes[candidates[k]].value;
    _lifetimeEvaluations += candidates.size();
}

std::uint64_t
PolicyEvalEngine::countEvaluated() const
{
    std::uint64_t evaluated = 0;
    for (const Outcome &outcome : _outcomes)
        evaluated += outcome.evaluated ? 1 : 0;
    return evaluated;
}

PolicyDecision
PolicyEvalEngine::reduce(std::uint64_t evaluated) const
{
    // Scan outcomes in candidate-index order — the same plan-major,
    // grid-order walk the serial nested loop performs — with strict
    // comparisons, so any fan-out width and the pruned mode agree with
    // exhaustive serial search down to tie-breaking. The best-effort
    // fallback is the minimum metric value.
    double best_power = std::numeric_limits<double>::infinity();
    double fallback_metric = std::numeric_limits<double>::infinity();
    bool feasible = false;
    std::size_t best = 0;
    std::size_t fallback = 0;
    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        if (!_outcomes[index].evaluated)
            continue;
        const CandidateOutcome &outcome = _outcomes[index].value;
        if (outcome.metric <= _qos.budget() &&
            outcome.power < best_power) {
            best_power = outcome.power;
            feasible = true;
            best = index;
        }
        if (outcome.metric < fallback_metric) {
            fallback_metric = outcome.metric;
            fallback = index;
        }
    }

    const std::size_t freqs = _space.frequencies.size();
    const std::size_t winner = feasible ? best : fallback;
    const CandidateOutcome &chosen = _outcomes[winner].value;
    return PolicyDecision{Policy{_space.frequencies[winner % freqs],
                                 _space.plans[winner / freqs]},
                          feasible, chosen.power, chosen.metric,
                          evaluated};
}

PolicyDecision
PolicyEvalEngine::exhaustiveSearch(const PreparedLog &log, double f_floor)
{
    const std::size_t freqs = _space.frequencies.size();
    _candidates.clear();
    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        if (_space.frequencies[index % freqs] >= f_floor &&
            !_outcomes[index].evaluated)
            _candidates.push_back(static_cast<std::uint32_t>(index));
    }
    replay(log, _candidates);

    const std::uint64_t evaluated = countEvaluated();
    if (evaluated == 0)
        fatal("PolicyEvalEngine::selectFromLog: no stable candidate; "
              "offered load too high for the frequency grid");
    return reduce(evaluated);
}

PolicyDecision
PolicyEvalEngine::prunedSearch(const PreparedLog &log, double f_floor)
{
    const std::size_t freqs = _space.frequencies.size();
    const std::size_t plans = _space.plans.size();

    // The frequency grid is ascending (validated at construction), so
    // the stable set is a suffix starting at first_stable.
    std::size_t first_stable = freqs;
    for (std::size_t k = 0; k < freqs; ++k) {
        if (_space.frequencies[k] >= f_floor) {
            first_stable = k;
            break;
        }
    }
    if (first_stable == freqs)
        fatal("PolicyEvalEngine::selectFromLog: no stable candidate; "
              "offered load too high for the frequency grid");

    // Phase A: per plan, binary-search the first feasible frequency
    // (the QoS metric is assumed nonincreasing in f within a plan). The
    // plans' searches advance in lockstep: each step replays one probe
    // per unfinished plan in a single kernel batch. A plan first probes
    // f_max; if even that misses the budget, nothing is feasible and
    // its boundary is `freqs`.
    for (BoundarySearch &search : _boundaries)
        search = BoundarySearch{first_stable, freqs - 1, freqs - 1, false};
    bool probed_top = false;
    for (;;) {
        _candidates.clear();
        for (std::size_t p = 0; p < plans; ++p) {
            if (!_boundaries[p].done)
                _candidates.push_back(static_cast<std::uint32_t>(
                    p * freqs + _boundaries[p].probe));
        }
        if (_candidates.empty())
            break;
        replay(log, _candidates);
        for (std::size_t p = 0; p < plans; ++p) {
            BoundarySearch &search = _boundaries[p];
            if (search.done)
                continue;
            const bool feasible =
                _outcomes[p * freqs + search.probe].value.metric <=
                _qos.budget();
            if (!probed_top && !feasible)
                search.lo = freqs;
            else if (probed_top && feasible)
                search.hi = search.probe;
            else if (probed_top)
                search.lo = search.probe + 1;
            search.done = search.lo >= search.hi;
            if (!search.done)
                search.probe = search.lo + (search.hi - search.lo) / 2;
        }
        probed_top = true;
    }

    // Phase B: characterize every feasible candidate (the suffix above
    // each plan's boundary) for the power reduction.
    _candidates.clear();
    bool any_feasible = false;
    for (std::size_t p = 0; p < plans; ++p) {
        const std::size_t boundary = _boundaries[p].lo;
        if (boundary == freqs)
            continue;
        any_feasible = true;
        for (std::size_t k = boundary; k < freqs; ++k) {
            const std::size_t index = p * freqs + k;
            if (!_outcomes[index].evaluated)
                _candidates.push_back(
                    static_cast<std::uint32_t>(index));
        }
    }

    if (!any_feasible) {
        // Best-effort fallback must match exhaustive search exactly, so
        // characterize the whole stable set.
        return exhaustiveSearch(log, f_floor);
    }
    replay(log, _candidates);
    return reduce(countEvaluated());
}

PolicyDecision
PolicyEvalEngine::selectFromPrepared(const PreparedLog &log)
{
    const double f_floor = minStableFrequency(log.offeredLoad());
    for (Outcome &outcome : _outcomes)
        outcome = Outcome{};

    PolicyDecision decision = _options.pruned
                                  ? prunedSearch(log, f_floor)
                                  : exhaustiveSearch(log, f_floor);
    _lifetimeEvaluations += decision.evaluated;
    return decision;
}

PolicyDecision
PolicyEvalEngine::selectFromLog(const std::vector<Job> &log)
{
    return selectFromPrepared(PreparedLog::fromJobs(log));
}

} // namespace sleepscale

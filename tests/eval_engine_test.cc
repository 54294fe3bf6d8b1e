/**
 * @file
 * Tests for the batched policy-evaluation engine: plan-cache fidelity,
 * pinned kernel outcomes, kernel-vs-streaming equivalence, batch-split
 * and pool-width bit-equality, an allocation-free search over a
 * prepared log, and pruned-vs-exhaustive decision equivalence across
 * the Table 5 workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <new>
#include <numeric>
#include <span>
#include <string>

#include "core/eval_engine.hh"
#include "core/policy_manager.hh"
#include "power/platform_model.hh"
#include "sim/pending_queue.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

// Counts every global allocation, so a test can assert that a window
// of engine work performs none. Kept out of line so the compiler never
// pairs an inlined free() with the allocating call.
namespace {
std::atomic<std::size_t> globalAllocations{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    globalAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(bytes == 0 ? 1 : bytes))
        return block;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *block) noexcept
{
    std::free(block);
}

[[gnu::noinline]] void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace sleepscale {
namespace {

std::vector<Job>
poissonLog(double rho, double service_mean, std::size_t n,
           std::uint64_t seed = 42)
{
    ExponentialDist gaps(service_mean / rho);
    ExponentialDist sizes(service_mean);
    StationarySource source(gaps.clone(), sizes.clone(), seed);
    return materialize(source, n);
}

/** A workload's moment-matched log at a target utilization. */
std::vector<Job>
workloadLog(const WorkloadSpec &spec, double rho, std::size_t n,
            std::uint64_t seed)
{
    StationarySource source(spec, rho, seed);
    return materialize(source, n);
}

void
expectIdenticalDecisions(const PolicyDecision &a, const PolicyDecision &b)
{
    EXPECT_EQ(a.policy.frequency, b.policy.frequency);
    EXPECT_EQ(a.policy.plan.toString(), b.policy.plan.toString());
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.predictedPower, b.predictedPower);
    EXPECT_EQ(a.predictedMetric, b.predictedMetric);
}

class EvalEngineTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    QosConstraint qos = QosConstraint::fromBaselineMean(0.8, 0.194);
};

// ------------------------------------------------------- the plan cache

TEST_F(EvalEngineTest, PlanCacheMatchesFreshMaterialization)
{
    const PolicySpace space = PolicySpace::standard();
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(), space, qos);

    for (std::size_t p = 0; p < space.plans.size(); ++p) {
        for (std::size_t k = 0; k < space.frequencies.size(); ++k) {
            const MaterializedPlan &cached = engine.materialized(p, k);
            const MaterializedPlan fresh(space.plans[p], xeon,
                                         space.frequencies[k]);
            ASSERT_EQ(cached.size(), fresh.size());
            for (std::size_t s = 0; s < fresh.size(); ++s) {
                EXPECT_EQ(cached.power(s), fresh.power(s));
                EXPECT_EQ(cached.enterAfter(s), fresh.enterAfter(s));
                EXPECT_EQ(cached.wakeLatency(s), fresh.wakeLatency(s));
                EXPECT_EQ(cached.state(s), fresh.state(s));
                EXPECT_EQ(cached.energyBeforeStage(s),
                          fresh.energyBeforeStage(s));
            }
        }
    }
}

TEST_F(EvalEngineTest, CachePersistsAcrossSelections)
{
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), qos);
    const auto log = poissonLog(0.3, 0.194, 3000);

    const PolicyDecision first = engine.selectFromLog(log);
    const std::uint64_t after_first = engine.lifetimeEvaluations();
    const PolicyDecision second = engine.selectFromLog(log);

    // Same log, same configuration: identical decision, and the second
    // epoch performs the same number of evaluations over the cached
    // space (no rebuild effects).
    expectIdenticalDecisions(first, second);
    EXPECT_EQ(after_first, first.evaluated);
    EXPECT_EQ(engine.lifetimeEvaluations() - after_first,
              second.evaluated);
}

// ---------------------------------------------- candidate-outcome pin

/** The plans the candidate-outcome pin covers: every single-state
 * plan, a delayed descent and a five-stage throttle-back. */
std::vector<SleepPlan>
pinnedPlans()
{
    std::vector<SleepPlan> plans;
    for (const LowPowerState state : allLowPowerStates)
        plans.push_back(SleepPlan::immediate(state));
    plans.push_back(SleepPlan::delayed(LowPowerState::C6S3, 0.1));
    plans.push_back(SleepPlan::throttleBack({0.01, 0.05, 0.2, 1.0}));
    return plans;
}

/** What the pin records of one candidate replay. */
struct PinnedOutcome
{
    double power;
    double meanResponse;
    double p95;
};

/** The pinned plans over the standard frequency grid. */
PolicySpace
pinnedSpace()
{
    PolicySpace space;
    space.plans = pinnedPlans();
    space.frequencies = PolicySpace::standard().frequencies;
    return space;
}

/** Every candidate index of `engine`'s space, in plan-major order. */
std::vector<std::uint32_t>
allCandidates(const PolicyEvalEngine &engine)
{
    std::vector<std::uint32_t> candidates(engine.space().size());
    std::iota(candidates.begin(), candidates.end(), 0u);
    return candidates;
}

/** Kernel outcomes of every candidate of `engine`'s space over `jobs`,
 * plan-major. */
std::vector<CandidateOutcome>
characterizeAll(PolicyEvalEngine &engine, const std::vector<Job> &jobs)
{
    const std::vector<std::uint32_t> candidates = allCandidates(engine);
    std::vector<CandidateOutcome> outcomes(candidates.size());
    engine.characterize(PreparedLog::fromJobs(jobs), candidates, outcomes);
    return outcomes;
}

/** The pinned outcomes of every (plan, frequency) candidate, plan-major
 * over pinnedSpace(). A 95th-percentile constraint makes the kernel
 * record the tail. */
std::vector<PinnedOutcome>
replayOutcomes(const PlatformModel &platform, const std::vector<Job> &jobs)
{
    PolicyEvalEngine engine(platform, ServiceScaling::cpuBound(),
                            pinnedSpace(),
                            QosConstraint::tailBudget(1.0, 95.0));
    std::vector<PinnedOutcome> pinned;
    for (const CandidateOutcome &outcome : characterizeAll(engine, jobs))
        pinned.push_back(
            {outcome.power, outcome.meanResponse, outcome.metric});
    return pinned;
}

// Recorded from the per-candidate ServerSim replay the kernel replaced.
// kDensePin replays poissonLog(0.3, 0.194, 2000, 31); kSparsePin
// replays poissonLog(0.02, 0.194, 600, 37), whose ~10 s gaps reach the
// deep stages of the delayed and throttle-back plans.
const PinnedOutcome kDensePin[] = {
    // C0(i)S0(i)
    {0x1.e5ffa6fc184d9p+6, 0x1.11f9944efc81ep+4, 0x1.534e06877cad7p+5},
    {0x1.cce4c276b12a9p+6, 0x1.1a7c178d26cfbp+2, 0x1.cbe2c2494c92ap+3},
    {0x1.bd7ebc9b1ceb6p+6, 0x1.25d4797b04455p+1, 0x1.0d3f170a79686p+3},
    {0x1.b52de147d08ccp+6, 0x1.6cee479282c22p+0, 0x1.4c0832c8e895cp+2},
    {0x1.b2f2e98241281p+6, 0x1.0709bbdf1c25p+0, 0x1.f4da46cb1fc2bp+1},
    {0x1.b6187bf35b343p+6, 0x1.9f2d15e5e53f4p-1, 0x1.89498f4b742c6p+1},
    {0x1.be253c8d5ed87p+6, 0x1.580d400f4f4f5p-1, 0x1.2f892c7034a03p+1},
    {0x1.cad6887b27e1fp+6, 0x1.231c65e655beep-1, 0x1.f04b8a05b80bp+0},
    {0x1.dc0d319e3c6bap+6, 0x1.fbda1e2454cc9p-2, 0x1.b2c01893f6795p+0},
    {0x1.f1c1b02d7119cp+6, 0x1.c219ebd9fa7e9p-2, 0x1.7f094cca08e19p+0},
    {0x1.05fe604c955d4p+7, 0x1.9413434a97a4bp-2, 0x1.4bb21f97b2a5bp+0},
    {0x1.15694df4c4c96p+7, 0x1.6f15299714ed4p-2, 0x1.25ed654f1cf22p+0},
    {0x1.272fe3d0b420ep+7, 0x1.4fd0c9e4f9b9dp-2, 0x1.05f687901262ap+0},
    {0x1.3b6373915d084p+7, 0x1.35b4db3b91b15p-2, 0x1.ddd381f98c80ep-1},
    {0x1.52179a43075f8p+7, 0x1.1f28b9c94d613p-2, 0x1.bb5fad00ab22cp-1},
    // C1S0(i)
    {0x1.e64a1c097b08dp+6, 0x1.11f99ecb5745fp+4, 0x1.534e06877cad7p+5},
    {0x1.ce98702fbbad3p+6, 0x1.1a7c417e91e02p+2, 0x1.cbe2c2494c92ap+3},
    {0x1.c06bf7525e499p+6, 0x1.25d4cd5dda661p+1, 0x1.0d3f170a79686p+3},
    {0x1.b8eeac62c4ea8p+6, 0x1.6ceeef582f03fp+0, 0x1.4c0832c8e895cp+2},
    {0x1.b6e3688592906p+6, 0x1.070a63a4c867p+0, 0x1.f4da46cb1fc2bp+1},
    {0x1.b959eec4c6a6dp+6, 0x1.9f2e65713dc33p-1, 0x1.89498f4b742c6p+1},
    {0x1.bf9f46aeac3d5p+6, 0x1.580e8f9aa7d29p-1, 0x1.2f892c7034a03p+1},
    {0x1.c93733193517ap+6, 0x1.231db571ae423p-1, 0x1.f04b8a05b80bp+0},
    {0x1.d5c8eccb31ae3p+6, 0x1.fbdcbd3b05d2dp-2, 0x1.b2c01893f6795p+0},
    {0x1.e5135357b0ac4p+6, 0x1.c21c8af0ab85p-2, 0x1.7f094cca08e19p+0},
    {0x1.f6e58c0df8ceep+6, 0x1.9415e26148ab3p-2, 0x1.4bb21f97b2a5bp+0},
    {0x1.058d1992befe3p+7, 0x1.6f17c8adc5f38p-2, 0x1.25ed654f1cf22p+0},
    {0x1.10ca1d1b66783p+7, 0x1.4fd368fbaacp-2, 0x1.05f687901262ap+0},
    {0x1.1d1e53bede681p+7, 0x1.35b77a5242b8ep-2, 0x1.ddd381f98c80ep-1},
    {0x1.2a808ef5eeedp+7, 0x1.1f2b58dffe68p-2, 0x1.bb5fad00ab22cp-1},
    // C3S0(i)
    {0x1.e8a21a5a08f54p+6, 0x1.11f9fd2a882dfp+4, 0x1.534e06877cad7p+5},
    {0x1.d978640c33fa1p+6, 0x1.1a7dbafb55802p+2, 0x1.cbe2c2494c92ap+3},
    {0x1.d000d7d19a1c1p+6, 0x1.25d7c05761a61p+1, 0x1.0d3f170a79686p+3},
    {0x1.ca654ba06f80cp+6, 0x1.6cf4d54b3d83fp+0, 0x1.4c0832c8e895cp+2},
    {0x1.c7e5289ea4363p+6, 0x1.07104997d6e7p+0, 0x1.f4da46cb1fc2bp+1},
    {0x1.c7ecb549fe286p+6, 0x1.9f3a3076b8de4p-1, 0x1.89498f4b742c6p+1},
    {0x1.ca0b44e0182c7p+6, 0x1.581a5b80c4d29p-1, 0x1.2f892c7034a03p+1},
    {0x1.cdf27f70838ap+6, 0x1.23298157cb423p-1, 0x1.f04b8a05b80bp+0},
    {0x1.d36a74a11e3c1p+6, 0x1.fbf455073fd2dp-2, 0x1.b2c01893f6795p+0},
    {0x1.da4a1db5b97d6p+6, 0x1.c234217a55544p-2, 0x1.7f094cca08e19p+0},
    {0x1.e272cd49872a7p+6, 0x1.942d7a2d82ab3p-2, 0x1.4bb21f97b2a5bp+0},
    {0x1.ebccc8d705a2bp+6, 0x1.6f2f5f6dec47ap-2, 0x1.279fcaca404e6p+0},
    {0x1.f64600a829a24p+6, 0x1.4feafec68532ap-2, 0x1.05f687901262ap+0},
    {0x1.00e7ea3e5cf07p+7, 0x1.35cf121e7cb8ep-2, 0x1.ddd381f98c80ep-1},
    {0x1.072f628928a1ep+7, 0x1.1f42f0ac3868p-2, 0x1.bb5fad00ab22cp-1},
    // C6S0(i)
    {0x1.e7b7c262feb0cp+6, 0x1.11fdace2713dfp+4, 0x1.534e06877cad7p+5},
    {0x1.d4d4de5aff82bp+6, 0x1.1a8c78ddab2efp+2, 0x1.cbe2c2494c92ap+3},
    {0x1.c88e344a251cdp+6, 0x1.25f53e16aa261p+1, 0x1.0d3f170a79686p+3},
    {0x1.c0b7fa03debc4p+6, 0x1.6d2fd0c9ce83fp+0, 0x1.4c0832c8e895cp+2},
    {0x1.bc6e3d03df4c3p+6, 0x1.074b42be5205dp+0, 0x1.f4da46cb1fc2bp+1},
    {0x1.bb0137dd4d529p+6, 0x1.9fb010c00cd4fp-1, 0x1.89498f4b742c6p+1},
    {0x1.bbebe8289915ap+6, 0x1.589042292525dp-1, 0x1.2f892c7034a03p+1},
    {0x1.bed0ab6951021p+6, 0x1.239f3f3c15b2bp-1, 0x1.f04b8a05b80bp+0},
    {0x1.c36d60853b4d4p+6, 0x1.fce00b8d6e851p-2, 0x1.b2c01893f6795p+0},
    {0x1.c991b7f71e2c1p+6, 0x1.c31fda54f2055p-2, 0x1.813f6413df8cbp+0},
    {0x1.d11a364298adcp+6, 0x1.95192a0c3ea6ap-2, 0x1.4bb21f97b2a5bp+0},
    {0x1.d9e922a833238p+6, 0x1.701b2c638483bp-2, 0x1.279fcaca404e6p+0},
    {0x1.e3eb392e876cep+6, 0x1.50d690b6ae93bp-2, 0x1.05f687901262ap+0},
    {0x1.ef0ec8f49504p+6, 0x1.36bac7f0c0df5p-2, 0x1.ddd381f98c80ep-1},
    {0x1.fb45919ee67eap+6, 0x1.202e99ee902f9p-2, 0x1.bb5fad00ab22cp-1},
    // C6S3
    {0x1.e83e50b02aff1p+6, 0x1.20ad8a3331ecap+4, 0x1.5b354d4f8201fp+5},
    {0x1.dc19ca95a678fp+6, 0x1.49b782966f6c5p+2, 0x1.e9f2af530ccb3p+3},
    {0x1.d61f3b491af75p+6, 0x1.809aefb646502p+1, 0x1.28ed5cc5abf59p+3},
    {0x1.d703188dc086cp+6, 0x1.10630bc830e7dp+1, 0x1.6e2aeb2ca9755p+2},
    {0x1.dabddecb117ccp+6, 0x1.bb02a08bcdb98p+0, 0x1.341778821d363p+2},
    {0x1.e38fb7326c362p+6, 0x1.83e0fc7cda143p+0, 0x1.f1fa5028170e7p+1},
    {0x1.f08b982fff708p+6, 0x1.5ff9f156b8971p+0, 0x1.a2feffb7c5ca5p+1},
    {0x1.ffcfbc416c09ep+6, 0x1.438427920895p+0, 0x1.6293969e743ddp+1},
    {0x1.0a2ce1a73943ep+7, 0x1.2ef7a6c373307p+0, 0x1.3c044366289a9p+1},
    {0x1.15ea0f0e38d73p+7, 0x1.1dcfdebf0fefdp+0, 0x1.1b46affc5a794p+1},
    {0x1.252847a120791p+7, 0x1.150fa0db35aep+0, 0x1.0b6e0e3cd6b67p+1},
    {0x1.36735d4d25978p+7, 0x1.0f268daa40d15p+0, 0x1.0259d439adeb4p+1},
    {0x1.48572d429ae1fp+7, 0x1.0533a92e95666p+0, 0x1.e7cc460b76ff3p+0},
    {0x1.5fbe7e4538302p+7, 0x1.fda1c79880e0cp-1, 0x1.cc82cde63427ep+0},
    {0x1.78c37272fcf17p+7, 0x1.f0823c0c65789p-1, 0x1.ba52cdaf75ddp+0},
    // C0(i)S0(i)->C6S3@0.1
    {0x1.e881eb262e39p+6, 0x1.20b5368ae1e21p+4, 0x1.5b354d4f8201fp+5},
    {0x1.dbc6505a5442fp+6, 0x1.40d50660d2405p+2, 0x1.cbe2c2494c92ap+3},
    {0x1.d38fb9a166bap+6, 0x1.7af8e7d311c07p+1, 0x1.28ed5cc5abf59p+3},
    {0x1.d09a9aae30c13p+6, 0x1.0aa5c5ddb234dp+1, 0x1.72685d3a518a6p+2},
    {0x1.d739370d5a97dp+6, 0x1.b3520feb6e9d3p+0, 0x1.341778821d363p+2},
    {0x1.e3239de21ee3cp+6, 0x1.7fcfb515a147bp+0, 0x1.fd93c1f526dd8p+1},
    {0x1.ef331060b6721p+6, 0x1.5981779cb1966p+0, 0x1.a2feffb7c5ca5p+1},
    {0x1.fd76c0b752a4bp+6, 0x1.385deda7a1fa7p+0, 0x1.5689f9040b403p+1},
    {0x1.084f87417e88ep+7, 0x1.23d4afca2549fp+0, 0x1.3c044366289a9p+1},
    {0x1.14b0ae8261253p+7, 0x1.16eb29f8d88ddp+0, 0x1.180892a927518p+1},
    {0x1.232a94746ea3bp+7, 0x1.098982e4acc17p+0, 0x1.0b6e0e3cd6b67p+1},
    {0x1.353b0f2153338p+7, 0x1.037ac604dd26ep+0, 0x1.fec982d5bb8acp+0},
    {0x1.476edf11ddc3cp+7, 0x1.f841ac9801424p-1, 0x1.ea9d31348181ap+0},
    {0x1.5ccdd9e22452bp+7, 0x1.ec5277c66b12dp-1, 0x1.d1d7ea5c3ba59p+0},
    {0x1.75b626ac0ded9p+7, 0x1.e19f8d0cf8c5cp-1, 0x1.b7c8d8145daf1p+0},
    // C0(i)S0(i)->C1S0(i)@0.01->C3S0(i)@0.05->C6S0(i)@0.2->C6S3@1
    {0x1.e87e722c00da9p+6, 0x1.1ccbc4be9f1d6p+4, 0x1.5b354d4f8201fp+5},
    {0x1.d88db98432238p+6, 0x1.2c7bfd17ae8cbp+2, 0x1.cbe2c2494c92ap+3},
    {0x1.d00299a0754ffp+6, 0x1.58292c033998dp+1, 0x1.28ed5cc5abf59p+3},
    {0x1.cb511276dbfa8p+6, 0x1.c7d8bcadf6684p+0, 0x1.6e2aeb2ca9755p+2},
    {0x1.ca7e01806aa35p+6, 0x1.5795c8c6bc40ap+0, 0x1.1c3c90b8b082ep+2},
    {0x1.ce9335ced59fbp+6, 0x1.20865f25a156cp+0, 0x1.d0bd6abfaa165p+1},
    {0x1.d62e3f861628p+6, 0x1.fb1b5c4465628p-1, 0x1.779624a2920d7p+1},
    {0x1.df0f4257fcba1p+6, 0x1.c04b95b991195p-1, 0x1.3a33e6d9088d8p+1},
    {0x1.ea33ab3c61754p+6, 0x1.95227ead5a612p-1, 0x1.09e516a698b81p+1},
    {0x1.f9b28ee54a7aap+6, 0x1.78f837ea4f04ep-1, 0x1.d9f5472676534p+0},
    {0x1.05bc39b81998bp+7, 0x1.5fb9b8c88aa36p-1, 0x1.ba52cdaf75ddp+0},
    {0x1.10829de8e14c3p+7, 0x1.5406510039361p-1, 0x1.a8dab0045068cp+0},
    {0x1.1b00aa23748f8p+7, 0x1.421589634501ep-1, 0x1.9a6e4a3879fa1p+0},
    {0x1.279ddb2818b68p+7, 0x1.333cde54bd1b7p-1, 0x1.8c7f3ef5bafc1p+0},
    {0x1.359f0f77836cap+7, 0x1.259391ba302b9p-1, 0x1.7f094cca08e19p+0},
};

const PinnedOutcome kSparsePin[] = {
    // C0(i)S0(i)
    {0x1.083e5a96c15fp+6, 0x1.4287ca8baea4ap-1, 0x1.ea9d31348181ap+0},
    {0x1.0b28c7c132b13p+6, 0x1.11d7033d215p-1, 0x1.9cccde092e974p+0},
    {0x1.10297307c990bp+6, 0x1.dc583e13d58f1p-2, 0x1.6160dcf861e4cp+0},
    {0x1.174fea6dcf8d7p+6, 0x1.a559d4b1c8932p-2, 0x1.358e788ae50fdp+0},
    {0x1.20bc8d2532e35p+6, 0x1.79b7fbe5f9d4fp-2, 0x1.171654b56685ep+0},
    {0x1.2c98e6c2988bap+6, 0x1.564cc5e25bfap-2, 0x1.f4586fe0e0d64p-1},
    {0x1.3b13dccb25808p+6, 0x1.38c8c38a0305p-2, 0x1.c8520affa0a4ep-1},
    {0x1.4c5f9fd43cf3cp+6, 0x1.1fe3592d01f4ap-2, 0x1.a4fcfd15cc4fep-1},
    {0x1.60b07e6ea536fp+6, 0x1.0aa523f6e744fp-2, 0x1.86a2491f97de5p-1},
    {0x1.783c307f35f1p+6, 0x1.f0bcd2fec3e53p-3, 0x1.6c8f902b5a0d7p-1},
    {0x1.93396655a2191p+6, 0x1.d0f9a114876c7p-3, 0x1.56312c88e01cfp-1},
    {0x1.b1df7f9cbea66p+6, 0x1.b52410911afe3p-3, 0x1.430cd74f6d476p-1},
    {0x1.d4665aa528528p+6, 0x1.9c865d1546594p-3, 0x1.30faa0e3d83f9p-1},
    {0x1.fb0633117ae34p+6, 0x1.867fffdc5f99dp-3, 0x1.1feb33c1c381ep-1},
    {0x1.12fbc540ff264p+7, 0x1.72ad78c2c3286p-3, 0x1.1161cc9772b62p-1},
    // C1S0(i)
    {0x1.108d6a876565bp+6, 0x1.42891a170726bp-1, 0x1.ea9d31348181ap+0},
    {0x1.14d25c3986bb5p+6, 0x1.11d852c879d24p-1, 0x1.9cccde092e974p+0},
    {0x1.1a91aad0dbdc3p+6, 0x1.dc5add2a86946p-2, 0x1.6160dcf861e4cp+0},
    {0x1.21a14abd8db8fp+6, 0x1.a55c73c879983p-2, 0x1.358e788ae50fdp+0},
    {0x1.29e801a53c9c6p+6, 0x1.79ba9afcaadadp-2, 0x1.171654b56685ep+0},
    {0x1.3355c173c88aap+6, 0x1.564f64f90cffdp-2, 0x1.f4586fe0e0d64p-1},
    {0x1.3ddfd62f5cc09p+6, 0x1.38cb62a0b40a4p-2, 0x1.c8520affa0a4ep-1},
    {0x1.497ed6ea8f223p+6, 0x1.1fe5f843b2fa1p-2, 0x1.a4fcfd15cc4fep-1},
    {0x1.562d7882e66d5p+6, 0x1.0aa7c30d98497p-2, 0x1.86a2491f97de5p-1},
    {0x1.63e7d9766957ep+6, 0x1.f0c2112c25ef9p-3, 0x1.6c8f902b5a0d7p-1},
    {0x1.72ab105f38a9ap+6, 0x1.d0fedf41e976bp-3, 0x1.56312c88e01cfp-1},
    {0x1.8274e35305e11p+6, 0x1.b5294ebe7d08cp-3, 0x1.430cd74f6d476p-1},
    {0x1.9343970c7aea2p+6, 0x1.9c8b9b42a863ep-3, 0x1.30faa0e3d83f9p-1},
    {0x1.a515cda578027p+6, 0x1.86853e09c1a44p-3, 0x1.1feb33c1c381ep-1},
    {0x1.b7ea6f2afc096p+6, 0x1.72b2b6f02532fp-3, 0x1.1161cc9772b62p-1},
    // C3S0(i)
    {0x1.538333fdcd72fp+6, 0x1.4294e5fd24795p-1, 0x1.ea9d31348181ap+0},
    {0x1.5290732961b57p+6, 0x1.11e41eae9724ep-1, 0x1.9cccde092e974p+0},
    {0x1.51f8c8a8f659dp+6, 0x1.dc7274f6c13a5p-2, 0x1.6160dcf861e4cp+0},
    {0x1.51a1b4f48321ep+6, 0x1.a5740b94b43dep-2, 0x1.358e788ae50fdp+0},
    {0x1.517b52150fad9p+6, 0x1.79d232c8e5807p-2, 0x1.171654b56685ep+0},
    {0x1.517b8135b7a2dp+6, 0x1.5666fcc547a52p-2, 0x1.f4586fe0e0d64p-1},
    {0x1.519b84469d6a4p+6, 0x1.38e2fa6ceebp-2, 0x1.c8520affa0a4ep-1},
    {0x1.51d6b08dc555bp+6, 0x1.1ffd900fed9f6p-2, 0x1.a4fcfd15cc4fep-1},
    {0x1.5229af17aebb4p+6, 0x1.0abf5ad9d2eedp-2, 0x1.86a2491f97de5p-1},
    {0x1.52920f9a99d4p+6, 0x1.f0f140c49b39ep-3, 0x1.6c8f902b5a0d7p-1},
    {0x1.530dfb47103b3p+6, 0x1.d12e0eda5ec1cp-3, 0x1.56312c88e01cfp-1},
    {0x1.539c0b0bb10e3p+6, 0x1.b5587e56f253ap-3, 0x1.430cd74f6d476p-1},
    {0x1.543b279f5a7f2p+6, 0x1.9cbacadb1dafp-3, 0x1.30faa0e3d83f9p-1},
    {0x1.54ea7522b1d8ap+6, 0x1.86b46da236efap-3, 0x1.1feb33c1c381ep-1},
    {0x1.55a943609979fp+6, 0x1.72e1e6889a7e2p-3, 0x1.1161cc9772b62p-1},
    // C6S0(i)
    {0x1.3926f86b0354ep+6, 0x1.430adcfa46795p-1, 0x1.ea9d31348181ap+0},
    {0x1.37f90eae9aeeep+6, 0x1.1259f52024274p-1, 0x1.9cccde092e974p+0},
    {0x1.373524a67c0e4p+6, 0x1.dd5e62f1053a5p-2, 0x1.6160dcf861e4cp+0},
    {0x1.36bbc436e50e3p+6, 0x1.a65ff98ef83ddp-2, 0x1.358e788ae50fdp+0},
    {0x1.367a162cfc44cp+6, 0x1.7abe20c329806p-2, 0x1.171654b56685ep+0},
    {0x1.366412eb708f7p+6, 0x1.5752eabf8ba52p-2, 0x1.f4586fe0e0d64p-1},
    {0x1.3671c2d615b5fp+6, 0x1.39cee86732afep-2, 0x1.c8520affa0a4ep-1},
    {0x1.369da4788ccc3p+6, 0x1.20e97e0a319f6p-2, 0x1.a76b2b3ade676p-1},
    {0x1.36e3b7d0384e3p+6, 0x1.0bab48d416eedp-2, 0x1.88e39aea09a86p-1},
    {0x1.37412b25c7673p+6, 0x1.f2c91cb92339ep-3, 0x1.6eaa595c387d2p-1},
    {0x1.37b3c4f6ba574p+6, 0x1.d305eacee6c1cp-3, 0x1.56312c88e01cfp-1},
    {0x1.3839dc57fd9adp+6, 0x1.b7305a4b7a539p-3, 0x1.430cd74f6d476p-1},
    {0x1.38d226b63987fp+6, 0x1.9e92a6cfa5aecp-3, 0x1.30faa0e3d83f9p-1},
    {0x1.397ba590eeac3p+6, 0x1.888c4996beef9p-3, 0x1.2194b7ef6e8bdp-1},
    {0x1.3a3589fb24695p+6, 0x1.74b9c27d227e2p-3, 0x1.12f5d4e4a50d9p-1},
    // C6S3
    {0x1.4e6fe52aa3fb2p+5, 0x1.961b06af887e7p+0, 0x1.6ad5ee25a9affp+1},
    {0x1.4b3f0c1be3525p+5, 0x1.8038aa45e458p+0, 0x1.4ae8f9a8331fcp+1},
    {0x1.494436c966528p+5, 0x1.6d30785456b7ep+0, 0x1.3149c53c32b9p+1},
    {0x1.4957599b81366p+5, 0x1.5fb0a5bdafa1bp+0, 0x1.1b46affc5a794p+1},
    {0x1.4adc5603004a2p+5, 0x1.5542a3e2c3684p+0, 0x1.09e516a698b81p+1},
    {0x1.4d69b3063b06ep+5, 0x1.4c22ab159391p+0, 0x1.fbdaf31d9a0e5p+0},
    {0x1.5136931fe7679p+5, 0x1.44aa7db768704p+0, 0x1.e4ff7e37aa1fcp+0},
    {0x1.563ec9f3d5136p+5, 0x1.3e699cf52ed7fp+0, 0x1.cc82cde63427ep+0},
    {0x1.5c570c12fe0ap+5, 0x1.38b03c44d70eep+0, 0x1.bce083de70b56p+0},
    {0x1.640fb498d28b8p+5, 0x1.3499c96afcec2p+0, 0x1.b04143bfed51p+0},
    {0x1.6cb4583b8dc1cp+5, 0x1.3049915a11f03p+0, 0x1.a66a65d5134d1p+0},
    {0x1.76e4fb6501cdbp+5, 0x1.2ce8c10779de4p+0, 0x1.9cccde092e974p+0},
    {0x1.823fbf1e38414p+5, 0x1.298b44375288cp+0, 0x1.93675e3eda1e3p+0},
    {0x1.8f074ea142181p+5, 0x1.26887639b6152p+0, 0x1.8c7f3ef5bafc1p+0},
    {0x1.9d4a040e838d2p+5, 0x1.23d2bcd57613p+0, 0x1.85b5655e73582p+0},
    // C0(i)S0(i)->C6S3@0.1
    {0x1.506abae610ae4p+5, 0x1.94d3589b0d9dbp+0, 0x1.6ad5ee25a9affp+1},
    {0x1.4cf062211d346p+5, 0x1.7d3c14161af56p+0, 0x1.471f4618adca5p+1},
    {0x1.4b958b2014c0ap+5, 0x1.6c560446af76dp+0, 0x1.3149c53c32b9p+1},
    {0x1.4b86289aa0b72p+5, 0x1.5dfbbda261204p+0, 0x1.1b46affc5a794p+1},
    {0x1.4cece3c684fc1p+5, 0x1.52b347b9cda5cp+0, 0x1.09e516a698b81p+1},
    {0x1.4fa97ee395fdfp+5, 0x1.49934eec9dcdcp+0, 0x1.f8f0b2498008cp+0},
    {0x1.53aeb79a909c8p+5, 0x1.421163c54a12fp+0, 0x1.dcb1be1a44f03p+0},
    {0x1.59234ad1e581fp+5, 0x1.3c477ad30cb51p+0, 0x1.cc82cde63427ep+0},
    {0x1.5fe58d281b72bp+5, 0x1.37688e305c2d7p+0, 0x1.bce083de70b56p+0},
    {0x1.679dd470a19d3p+5, 0x1.3277a748daca2p+0, 0x1.b04143bfed51p+0},
    {0x1.70e03e63d87bep+5, 0x1.2e94a93ec36e5p+0, 0x1.a66a65d5134d1p+0},
    {0x1.7b8a46b716916p+5, 0x1.2b33d8ec2b5cap+0, 0x1.9cccde092e974p+0},
    {0x1.876ea65b3ea37p+5, 0x1.27d65c1c0406ep+0, 0x1.93675e3eda1e3p+0},
    {0x1.94cff7cf4c9dcp+5, 0x1.24d38e1e67929p+0, 0x1.8c7f3ef5bafc1p+0},
    {0x1.a451c48e92e1ap+5, 0x1.22f848c7ced21p+0, 0x1.85b5655e73582p+0},
    // C0(i)S0(i)->C1S0(i)@0.01->C3S0(i)@0.05->C6S0(i)@0.2->C6S3@1
    {0x1.693c8fe4c9916p+5, 0x1.8356c37c18a0fp+0, 0x1.68c0c59ab1567p+1},
    {0x1.6657fc861aba8p+5, 0x1.6d728fd5f2053p+0, 0x1.4360ac2804337p+1},
    {0x1.6496e200932b7p+5, 0x1.5af6ef23ab128p+0, 0x1.2c0fb09811e8p+1},
    {0x1.646db592c8f97p+5, 0x1.4d2242bbb4499p+0, 0x1.180892a927518p+1},
    {0x1.65c56b1210be1p+5, 0x1.425514b237acap+0, 0x1.03d7a598892c8p+1},
    {0x1.68980e9a25527p+5, 0x1.3acf0d6d7d842p+0, 0x1.f04b8a05b80bp+0},
    {0x1.6c2d7ea2f6ebcp+5, 0x1.33509ac7cde3bp+0, 0x1.d9f5472676534p+0},
    {0x1.70ef88b9eaa4ep+5, 0x1.2d2ca0e0a0d94p+0, 0x1.c73d51c54470ep+0},
    {0x1.76be9e7a2154ep+5, 0x1.2773b6cb5d44p+0, 0x1.b5429d89a9ef5p+0},
    {0x1.7ded9a99bd706p+5, 0x1.22f0699661023p+0, 0x1.a8dab0045068cp+0},
    {0x1.86252c0d27c09p+5, 0x1.1ea08a3b3c2d6p+0, 0x1.9f2ef2507aab8p+0},
    {0x1.8fc6777045a0ap+5, 0x1.1b47d76c0b51cp+0, 0x1.95bb8f6d46055p+0},
    {0x1.9a8ea90442ac2p+5, 0x1.17ea959ea7122p+0, 0x1.8ec93b06aed67p+0},
    {0x1.a6f26f6c06bb3p+5, 0x1.15551f6884159p+0, 0x1.85b5655e73582p+0},
    {0x1.b4c776faae4f1p+5, 0x1.130cb846ac187p+0, 0x1.8378bffe86c4dp+0},
};

TEST_F(EvalEngineTest, CandidateOutcomesMatchPin)
{
    struct PinnedLog
    {
        std::vector<Job> jobs;
        const PinnedOutcome *pin;
        std::size_t size;
    };
    const PinnedLog logs[] = {
        {poissonLog(0.3, 0.194, 2000, 31), kDensePin, std::size(kDensePin)},
        {poissonLog(0.02, 0.194, 600, 37), kSparsePin,
         std::size(kSparsePin)},
    };
    const std::vector<SleepPlan> plans = pinnedPlans();
    const std::vector<double> freqs = PolicySpace::standard().frequencies;
    PolicyEvalEngine mean_engine(xeon, ServiceScaling::cpuBound(),
                                 pinnedSpace(), qos);
    for (const PinnedLog &log : logs) {
        const std::vector<PinnedOutcome> outcomes =
            replayOutcomes(xeon, log.jobs);
        // The mean-metric kernel (no histograms) must agree too.
        const std::vector<CandidateOutcome> means =
            characterizeAll(mean_engine, log.jobs);
        ASSERT_EQ(outcomes.size(), log.size);
        ASSERT_EQ(means.size(), log.size);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE(plans[i / freqs.size()].toString() + " f=" +
                         std::to_string(freqs[i % freqs.size()]));
            EXPECT_EQ(outcomes[i].power, log.pin[i].power);
            EXPECT_EQ(outcomes[i].meanResponse, log.pin[i].meanResponse);
            EXPECT_EQ(outcomes[i].p95, log.pin[i].p95);
            EXPECT_EQ(means[i].power, log.pin[i].power);
            EXPECT_EQ(means[i].meanResponse, log.pin[i].meanResponse);
            EXPECT_EQ(means[i].metric, log.pin[i].meanResponse);
        }
    }
}

// ----------------------------------- the kernel vs the streaming simulator

TEST_F(EvalEngineTest, ReplayMatchesStreamingEvaluation)
{
    const auto jobs = poissonLog(0.25, 0.194, 8000, 7);
    PolicySpace space;
    space.plans = pinnedPlans();
    space.frequencies = {0.4, 0.7, 1.0};
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(), space,
                            QosConstraint::tailBudget(1.0, 95.0));
    const std::vector<CandidateOutcome> outcomes =
        characterizeAll(engine, jobs);

    for (std::size_t index = 0; index < outcomes.size(); ++index) {
        const Policy policy{
            space.frequencies[index % space.frequencies.size()],
            space.plans[index / space.frequencies.size()]};
        SCOPED_TRACE(policy.toString());
        const PolicyEvaluation streamed = evaluatePolicy(
            xeon, ServiceScaling::cpuBound(), policy, jobs);
        // Streaming integrates idle energy in the same single interval
        // per gap but through a different call path; energy agrees to
        // rounding, the response statistics bit for bit.
        EXPECT_NEAR(outcomes[index].power / streamed.avgPower(), 1.0,
                    1e-12);
        EXPECT_EQ(outcomes[index].meanResponse,
                  streamed.stats.response.mean());
        EXPECT_EQ(outcomes[index].metric,
                  streamed.stats.responsePercentile(95.0));
    }
}

TEST_F(EvalEngineTest, KernelScratchIsReusable)
{
    const auto jobs = poissonLog(0.2, 0.194, 2000, 11);
    const PreparedLog prepared = PreparedLog::fromJobs(jobs);
    const Policy policy{0.6,
                        SleepPlan::delayed(LowPowerState::C6S3, 0.1)};
    PolicySpace space;
    space.plans = {SleepPlan::immediate(LowPowerState::C6S3),
                   policy.plan};
    space.frequencies = {0.6, 1.0};
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(), space, qos);
    const std::uint32_t delayed_at_06 = 2; // plan 1, frequency 0.6.

    std::vector<CandidateOutcome> first(1);
    engine.characterize(prepared, {&delayed_at_06, 1}, first);

    // Replaying other candidates through the same scratch, then the
    // first one again, is bit-identical.
    const std::vector<std::uint32_t> others = {0, 1, 3};
    std::vector<CandidateOutcome> scratch(others.size());
    engine.characterize(prepared, others, scratch);
    std::vector<CandidateOutcome> again(1);
    engine.characterize(prepared, {&delayed_at_06, 1}, again);
    EXPECT_EQ(again[0].power, first[0].power);
    EXPECT_EQ(again[0].meanResponse, first[0].meanResponse);
    EXPECT_EQ(again[0].metric, first[0].metric);

    const PolicyEvaluation streamed =
        evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy, jobs);
    EXPECT_NEAR(first[0].power / streamed.avgPower(), 1.0, 1e-12);
    EXPECT_EQ(first[0].meanResponse, streamed.stats.response.mean());
}

// ------------------------------------------ kernel batching and fan-out

TEST_F(EvalEngineTest, KernelOutcomesIndependentOfBatchSplitAndPoolWidth)
{
    const auto jobs = poissonLog(0.1, 0.194, 1500, 19);
    const PreparedLog prepared = PreparedLog::fromJobs(jobs);
    const QosConstraint tail_qos = QosConstraint::tailBudget(1.0, 95.0);
    for (const QosConstraint &constraint : {qos, tail_qos}) {
        PolicyEvalEngine reference_engine(xeon, ServiceScaling::cpuBound(),
                                          pinnedSpace(), constraint);
        const std::vector<CandidateOutcome> reference =
            characterizeAll(reference_engine, jobs);
        const std::vector<std::uint32_t> candidates =
            allCandidates(reference_engine);

        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            EvalEngineOptions options;
            options.threads = threads;
            PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                                    pinnedSpace(), constraint, options);
            for (const std::size_t split :
                 {std::size_t{1}, std::size_t{7}, candidates.size()}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " split=" + std::to_string(split));
                std::vector<CandidateOutcome> outcomes(candidates.size());
                for (std::size_t first = 0; first < candidates.size();
                     first += split) {
                    const std::size_t count =
                        std::min(split, candidates.size() - first);
                    engine.characterize(
                        prepared,
                        std::span(candidates).subspan(first, count),
                        std::span(outcomes).subspan(first, count));
                }
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    EXPECT_EQ(outcomes[i].power, reference[i].power);
                    EXPECT_EQ(outcomes[i].meanResponse,
                              reference[i].meanResponse);
                    EXPECT_EQ(outcomes[i].metric, reference[i].metric);
                }
            }
        }
    }
}

TEST_F(EvalEngineTest, SearchAllocatesNothingAfterTheFirstSelection)
{
    const auto log = poissonLog(0.3, 0.194, 3000, 13);
    const QosConstraint tail_qos =
        QosConstraint::fromBaselineTail(0.8, 0.194);
    for (const QosConstraint &constraint : {qos, tail_qos}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
            for (const bool pruned : {false, true}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " pruned=" + std::to_string(pruned));
                EvalEngineOptions options;
                options.threads = threads;
                options.pruned = pruned;
                PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                                        PolicySpace::standard(),
                                        constraint, options);
                const PreparedLog prepared = PreparedLog::fromJobs(log);
                const std::vector<std::uint32_t> candidates =
                    allCandidates(engine);
                std::vector<CandidateOutcome> outcomes(candidates.size());
                const PolicyDecision first =
                    engine.selectFromPrepared(prepared);
                engine.characterize(prepared, candidates, outcomes);

                std::size_t before = globalAllocations.load();
                engine.characterize(prepared, candidates, outcomes);
                EXPECT_EQ(globalAllocations.load() - before, 0u);

                // A selection allocates only the returned policy's copy
                // of the winning sleep plan.
                before = globalAllocations.load();
                const PolicyDecision again =
                    engine.selectFromPrepared(prepared);
                EXPECT_EQ(globalAllocations.load() - before, 1u);
                expectIdenticalDecisions(first, again);
            }
        }
    }
}

TEST_F(EvalEngineTest, EvaluatePolicyAllocationsDoNotGrowWithTheLog)
{
    // The per-job checks (ServerSim::offerJob, ServiceScaling::factor)
    // build no message string unless they fail, so a replay allocates
    // the same few blocks for 1k jobs as for 10k.
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    const auto allocationsFor = [&](const std::vector<Job> &log) {
        const std::size_t before = globalAllocations.load();
        const PolicyEvaluation eval = evaluatePolicy(
            xeon, ServiceScaling::cpuBound(), policy, log);
        const std::size_t count = globalAllocations.load() - before;
        EXPECT_EQ(eval.stats.completions, log.size());
        return count;
    };
    const std::size_t small =
        allocationsFor(poissonLog(0.3, 0.194, 1000, 17));
    const std::size_t large =
        allocationsFor(poissonLog(0.3, 0.194, 10000, 17));
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 16u);
}

TEST_F(EvalEngineTest, CharacterizeRejectsBadCandidateLists)
{
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), qos);
    const PreparedLog log =
        PreparedLog::fromJobs(poissonLog(0.3, 0.194, 100));
    std::vector<CandidateOutcome> two(2);
    const std::vector<std::uint32_t> twice = {3, 3};
    EXPECT_THROW(engine.characterize(log, twice, two), ConfigError);
    const std::vector<std::uint32_t> beyond = {
        0, static_cast<std::uint32_t>(engine.space().size())};
    EXPECT_THROW(engine.characterize(log, beyond, two), ConfigError);
    std::vector<CandidateOutcome> one(1);
    EXPECT_THROW(engine.characterize(log, twice, one), ConfigError);
}

// ------------------------------------------- engine vs the legacy loop

TEST_F(EvalEngineTest, EngineMatchesNaivePerCandidateLoop)
{
    const auto jobs = poissonLog(0.3, 0.194, 6000, 3);
    const PolicySpace space = PolicySpace::standard();
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(), space, qos);
    const PolicyDecision decision = engine.selectFromLog(jobs);

    // Reproduce the pre-engine selection: a fresh streaming simulation
    // per candidate.
    const double rho = PolicyManager::logOfferedLoad(jobs);
    const double f_floor = engine.minStableFrequency(rho);
    double best_power = std::numeric_limits<double>::infinity();
    Policy best;
    double best_metric = 0.0;
    std::uint64_t evaluated = 0;
    for (const SleepPlan &plan : space.plans) {
        for (double f : space.frequencies) {
            if (f < f_floor)
                continue;
            const Policy candidate{f, plan};
            const PolicyEvaluation eval = evaluatePolicy(
                xeon, ServiceScaling::cpuBound(), candidate, jobs);
            ++evaluated;
            const double metric = qos.measuredValue(eval.stats);
            if (metric <= qos.budget() && eval.avgPower() < best_power) {
                best_power = eval.avgPower();
                best = candidate;
                best_metric = metric;
            }
        }
    }

    EXPECT_EQ(decision.evaluated, evaluated);
    EXPECT_TRUE(decision.feasible);
    EXPECT_EQ(decision.policy.frequency, best.frequency);
    EXPECT_EQ(decision.policy.plan.toString(), best.plan.toString());
    EXPECT_NEAR(decision.predictedPower / best_power, 1.0, 1e-12);
    EXPECT_NEAR(decision.predictedMetric / best_metric, 1.0, 1e-12);
}

// --------------------------------------- parallel-vs-serial bit-equality

TEST_F(EvalEngineTest, ParallelSelectionBitMatchesSerial)
{
    const PolicySpace space = PolicySpace::standard();
    PolicyEvalEngine serial(xeon, ServiceScaling::cpuBound(), space, qos);

    for (const double rho : {0.1, 0.3, 0.6}) {
        const auto log =
            poissonLog(rho, 0.194, 5000,
                       static_cast<std::uint64_t>(rho * 100));
        const PolicyDecision reference = serial.selectFromLog(log);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                          std::size_t{8}}) {
            EvalEngineOptions options;
            options.threads = threads;
            PolicyEvalEngine parallel(xeon, ServiceScaling::cpuBound(),
                                      space, qos, options);
            const PolicyDecision decision = parallel.selectFromLog(log);
            expectIdenticalDecisions(reference, decision);
            EXPECT_EQ(reference.evaluated, decision.evaluated);
        }
    }
}

// ------------------------------------- pruned-vs-exhaustive equivalence

TEST_F(EvalEngineTest, PrunedMatchesExhaustiveAcrossTable5Workloads)
{
    const WorkloadSpec workloads[] = {dnsWorkload(), mailWorkload(),
                                      googleWorkload()};
    for (const WorkloadSpec &spec : workloads) {
        const QosConstraint mean_qos =
            QosConstraint::fromBaselineMean(0.8, spec.serviceMean);
        const QosConstraint tail_qos =
            QosConstraint::fromBaselineTail(0.8, spec.serviceMean);
        for (const QosConstraint &constraint : {mean_qos, tail_qos}) {
            PolicyEvalEngine exhaustive(xeon, spec.scaling,
                                        PolicySpace::standard(),
                                        constraint);
            EvalEngineOptions options;
            options.pruned = true;
            PolicyEvalEngine pruned(xeon, spec.scaling,
                                    PolicySpace::standard(), constraint,
                                    options);
            for (const double rho : {0.1, 0.3, 0.5}) {
                const auto log = workloadLog(spec, rho, 4000, 17);
                const PolicyDecision a = exhaustive.selectFromLog(log);
                const PolicyDecision b = pruned.selectFromLog(log);
                expectIdenticalDecisions(a, b);
                // Pruning must not characterize more than exhaustive.
                EXPECT_LE(b.evaluated, a.evaluated)
                    << spec.name << " rho=" << rho;
            }
        }
    }
}

TEST_F(EvalEngineTest, PrunedInfeasibleFallbackMatchesExhaustive)
{
    // An impossible budget: nothing is feasible, and the pruned search
    // must fall back to the identical best-effort (fastest) decision.
    const QosConstraint impossible = QosConstraint::meanBudget(1e-6);
    const auto log = poissonLog(0.3, 0.194, 4000, 5);

    PolicyEvalEngine exhaustive(xeon, ServiceScaling::cpuBound(),
                                PolicySpace::standard(), impossible);
    EvalEngineOptions options;
    options.pruned = true;
    PolicyEvalEngine pruned(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), impossible, options);

    const PolicyDecision a = exhaustive.selectFromLog(log);
    const PolicyDecision b = pruned.selectFromLog(log);
    EXPECT_FALSE(a.feasible);
    expectIdenticalDecisions(a, b);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST_F(EvalEngineTest, PrunedParallelCombinationMatchesSerial)
{
    const auto log = poissonLog(0.2, 0.194, 5000, 23);
    PolicyEvalEngine serial(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), qos);
    EvalEngineOptions options;
    options.pruned = true;
    options.threads = 4;
    PolicyEvalEngine combined(xeon, ServiceScaling::cpuBound(),
                              PolicySpace::standard(), qos, options);
    expectIdenticalDecisions(serial.selectFromLog(log),
                             combined.selectFromLog(log));
}

// ---------------------------------------------------------- validation

TEST_F(EvalEngineTest, ValidationMatchesPolicyManager)
{
    PolicySpace empty;
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(), empty,
                                  qos),
                 ConfigError);

    PolicySpace bad_freq = PolicySpace::standard();
    bad_freq.frequencies.push_back(1.5);
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(),
                                  bad_freq, qos),
                 ConfigError);

    // Pruned mode requires an ascending grid.
    PolicySpace shuffled = PolicySpace::standard();
    std::swap(shuffled.frequencies.front(),
              shuffled.frequencies.back());
    EvalEngineOptions options;
    options.pruned = true;
    EXPECT_THROW(PolicyEvalEngine(xeon, ServiceScaling::cpuBound(),
                                  shuffled, qos, options),
                 ConfigError);
}

// ------------------------------------------------------- prepared logs

TEST_F(EvalEngineTest, PreparedLogPrefixSums)
{
    const std::vector<Job> jobs = {{1.0, 0.2}, {2.0, 0.4}, {4.0, 0.1}};
    const PreparedLog log = PreparedLog::fromJobs(jobs);
    EXPECT_EQ(log.count(), 3u);
    EXPECT_DOUBLE_EQ(log.cumSize[0], 0.2);
    EXPECT_DOUBLE_EQ(log.cumSize[1], 0.2 + 0.4);
    EXPECT_DOUBLE_EQ(log.totalDemand(), 0.7);
    EXPECT_NEAR(log.meanSize(), 0.7 / 3.0, 1e-15);
    EXPECT_NEAR(log.offeredLoad(), 0.7 / 4.0, 1e-15);

    EXPECT_THROW(PreparedLog::fromJobs({}), ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{2.0, 0.1}, {1.0, 0.1}}),
                 ConfigError);
    EXPECT_THROW(PreparedLog::fromJobs({{1.0, -0.1}}), ConfigError);
}

TEST_F(EvalEngineTest, PreparedOfferedLoadMatchesPolicyManagerHelper)
{
    const auto jobs = poissonLog(0.4, 0.194, 1000, 9);
    const PreparedLog log = PreparedLog::fromJobs(jobs);
    EXPECT_EQ(log.offeredLoad(), PolicyManager::logOfferedLoad(jobs));
    EXPECT_EQ(log.meanSize(), PolicyManager::logMeanSize(jobs));
}

// ------------------------------------------------- pending-queue ring

TEST(PendingQueueTest, FifoAcrossWrapAround)
{
    PendingQueue queue;
    // Push/pop more entries than the initial slab to force wrapping.
    std::size_t pushed = 0;
    std::size_t popped = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 17; ++i) {
            queue.push(static_cast<double>(pushed), 0.5);
            ++pushed;
        }
        for (int i = 0; i < 13; ++i) {
            ASSERT_FALSE(queue.empty());
            EXPECT_EQ(queue.front().depart,
                      static_cast<double>(popped));
            queue.pop();
            ++popped;
        }
    }
    EXPECT_EQ(queue.size(), pushed - popped);
    while (!queue.empty()) {
        EXPECT_EQ(queue.front().depart, static_cast<double>(popped));
        queue.pop();
        ++popped;
    }
    EXPECT_EQ(popped, pushed);

    queue.reset();
    EXPECT_TRUE(queue.empty());
    queue.push(7.0, 1.0);
    EXPECT_EQ(queue.front().depart, 7.0);
    EXPECT_EQ(queue.front().response, 1.0);
}

} // namespace
} // namespace sleepscale

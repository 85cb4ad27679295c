// Integrity tier: homomorphic ABFT digests, silent-data-corruption
// injection, and the verify-and-recover collectives.
//
// Five layers of coverage:
//   1. Unit: Digest algebra (fold identities, the O(1) run fast path),
//      content digests, FaultPlan sdc/poison parsing, RetryPolicy jitter.
//   2. Compressor: digest emission across datasets and error bounds
//      (different residual bit widths); any single flipped payload byte is
//      detected; clean streams never false-positive.
//   3. Operators: hz_add/sub/negate/scale/add_many fold digest tables
//      algebraically — the folded table always matches a from-scratch
//      recheck of the combined chain.
//   4. Blocking collectives: seeded post-CRC bit flips (sdc) and poisoned
//      combines are detected under verify=round and recovered to the clean
//      run's result — bitwise when recovery stayed on the retransmit /
//      recompute path; zero mismatches ever on a fault-free run.
//   5. Sched: the engine runs wire-sdc plans on the shared link layer and
//      rejects only invalid ones; wire SDC healed under verify=round, a
//      plan's poisoned combines and an armed SdcInjector all taint jobs,
//      and a tainted fused super-job is re-verified per member before the
//      split.
//   6. Model: RoundSim prices the digest ladder (off < final < per-round)
//      for every kernel x algorithm, and at the paper's 512-rank point the
//      per-round cost stays under the 5% bench-gate budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "hzccl/cluster/roundsim.hpp"
#include "hzccl/collectives/movement.hpp"
#include "hzccl/core/hzccl.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/integrity/digest.hpp"
#include "hzccl/integrity/sdc.hpp"
#include "hzccl/sched/scheduler.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/trace/trace.hpp"

namespace hzccl {
namespace {

using coll::VerifyPolicy;
using integrity::Digest;
using simmpi::FaultPlan;
using simmpi::NetModel;
using simmpi::RetryPolicy;

// ---------------------------------------------------------------------------
// 1. Unit: digest algebra, plan parsing, retry jitter
// ---------------------------------------------------------------------------

TEST(Digest, RunFastPathMatchesTheElementLoop) {
  for (const int64_t q : {int64_t{0}, int64_t{3}, int64_t{-7}, int64_t{1} << 40}) {
    for (const uint64_t pos : {uint64_t{1}, uint64_t{17}, uint64_t{1000}}) {
      for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{33}, uint64_t{512}}) {
        Digest run;
        run.accumulate_run(q, pos, n);
        Digest loop;
        for (uint64_t i = 0; i < n; ++i) loop.accumulate(q, pos + i);
        EXPECT_EQ(run, loop) << "q=" << q << " pos=" << pos << " n=" << n;
      }
    }
  }
}

TEST(Digest, FoldIdentitiesHoldInTheModularRing) {
  Digest a{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
  Digest b{0xffffffffffffff01ULL, 0x00000000000000ffULL};

  // digest(a+b) = digest(a) + digest(b); subtraction and negation invert it.
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a + (-a), Digest{});
  EXPECT_EQ(-(-a), a);
  // digest(k·a) = k · digest(a), including negative k through the ring.
  EXPECT_EQ(3 * a, a + a + a);
  EXPECT_EQ(-1 * a, -a);
  EXPECT_EQ(0 * a, Digest{});
}

TEST(Digest, ContentDigestSeesEveryBytePosition) {
  std::vector<uint8_t> bytes(257);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  const Digest clean = integrity::content_digest(bytes.data(), bytes.size());

  // A transposition preserves the plain sum; wsum catches it.
  std::vector<uint8_t> swapped = bytes;
  std::swap(swapped[10], swapped[200]);
  const Digest transposed = integrity::content_digest(swapped.data(), swapped.size());
  EXPECT_EQ(transposed.sum, clean.sum);
  EXPECT_NE(transposed, clean);

  // Every single-bit flip lands in at least one component.
  for (const size_t at : {size_t{0}, size_t{128}, bytes.size() - 1}) {
    std::vector<uint8_t> flipped = bytes;
    flipped[at] ^= 0x40;
    EXPECT_NE(integrity::content_digest(flipped.data(), flipped.size()), clean);
  }
}

TEST(FaultPlan, ParsesTheSilentFaultFields) {
  // Fields 10 and 11: sdc and poison probabilities.
  const FaultPlan p = FaultPlan::parse("9,0,0,0,0,0,0,50e-6,2e-4,0.05,0.01");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.sdc, 0.05);
  EXPECT_DOUBLE_EQ(p.poison, 0.01);
  EXPECT_TRUE(p.silent_faults_enabled());
  // sdc is a wire fault (arms the in-flight window); poison is not.
  EXPECT_TRUE(p.enabled());

  const FaultPlan sdc_only = FaultPlan::parse("9,0,0,0,0,0,0,50e-6,2e-4,0.05");
  EXPECT_DOUBLE_EQ(sdc_only.sdc, 0.05);
  EXPECT_DOUBLE_EQ(sdc_only.poison, 0.0);

  FaultPlan poison_only;
  poison_only.poison = 0.25;
  EXPECT_TRUE(poison_only.silent_faults_enabled());
  EXPECT_FALSE(poison_only.enabled());
  EXPECT_NO_THROW(poison_only.validate());

  EXPECT_THROW(FaultPlan::parse("9,0,0,0,0,0,0,50e-6,2e-4,1.5"), Error);      // sdc > 1
  EXPECT_THROW(FaultPlan::parse("9,0,0,0,0,0,0,50e-6,2e-4,0,-0.1"), Error);   // poison < 0
  EXPECT_THROW(FaultPlan::parse("9,0,0,0,0,0,0,50e-6,2e-4,0,0,1"), Error);    // too many
}

TEST(RetryPolicy, ParsesTheJitterField) {
  const RetryPolicy p = RetryPolicy::parse("4,100e-6,2,0.25");
  EXPECT_EQ(p.max_attempts, 4);
  EXPECT_DOUBLE_EQ(p.backoff_base_s, 100e-6);
  EXPECT_DOUBLE_EQ(p.backoff_factor, 2.0);
  EXPECT_DOUBLE_EQ(p.jitter, 0.25);
  EXPECT_THROW(RetryPolicy::parse("4,100e-6,2,1.0"), Error);   // jitter must be < 1
  EXPECT_THROW(RetryPolicy::parse("4,100e-6,2,-0.1"), Error);  // or negative
}

TEST(RetryPolicy, JitteredBackoffIsSeededBoundedAndExact) {
  RetryPolicy p;
  p.max_attempts = 5;
  p.backoff_base_s = 100e-6;
  p.backoff_factor = 2.0;
  p.jitter = 0.5;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double nominal = 100e-6 * std::pow(2.0, attempt - 1);
    const double drawn = p.backoff_for(attempt, 42);
    EXPECT_GE(drawn, nominal * 0.5);
    EXPECT_LT(drawn, nominal * 1.5);
    // Pure function of (seed, attempt): replays are exact, seeds decorrelate.
    EXPECT_DOUBLE_EQ(drawn, p.backoff_for(attempt, 42));
    EXPECT_NE(drawn, p.backoff_for(attempt, 43));
  }
  // jitter = 0 keeps the legacy deterministic ladder bit-for-bit.
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(3, 42), 100e-6 * 4.0);
}

// ---------------------------------------------------------------------------
// 2. Compressor: emission and detection
// ---------------------------------------------------------------------------

std::vector<float> test_field(DatasetId id, size_t elements, uint32_t seed = 1) {
  std::vector<float> full = generate_field(id, Scale::kTiny, seed);
  full.resize(elements);
  return full;
}

FzParams digest_params(double eb) {
  FzParams p;
  p.abs_error_bound = eb;
  p.block_len = 32;
  p.emit_digests = true;
  return p;
}

TEST(DigestEmission, EveryDatasetAndBoundVerifiesCleanly) {
  for (const DatasetId id : {DatasetId::kRtmSim1, DatasetId::kRtmSim2, DatasetId::kNyx,
                             DatasetId::kCesmAtm, DatasetId::kHurricane}) {
    // Different bounds exercise different residual bit widths (1e-6 would
    // push some fields past the 30-bit quantization domain).
    for (const double eb : {1e-2, 1e-3, 1e-4}) {
      const std::vector<float> data = test_field(id, 5000);
      const CompressedBuffer with = fz_compress(data, digest_params(eb));
      const FzView view = parse_fz(with.bytes);
      ASSERT_TRUE(view.has_digests());
      const DigestCheck check = fz_verify_digests(view);
      EXPECT_TRUE(check.checked);
      EXPECT_TRUE(check.ok) << dataset_name(id) << " eb=" << eb;

      // The flag is opt-in: without it the stream carries no table and a
      // verify pass reports nothing-to-check.
      FzParams off = digest_params(eb);
      off.emit_digests = false;
      const DigestCheck none = fz_verify_digests(fz_compress(data, off));
      EXPECT_FALSE(none.checked);
      EXPECT_TRUE(none.ok);

      // Digests do not perturb the payload: decode equals the digest-free
      // stream's decode bit for bit.
      EXPECT_EQ(fz_decompress(with), fz_decompress(fz_compress(data, off)));
    }
  }
}

TEST(DigestEmission, FlippedPayloadBytesAreDetectedOrHarmless) {
  const std::vector<float> data = test_field(DatasetId::kHurricane, 4000);
  const CompressedBuffer stream = fz_compress(data, digest_params(1e-3));
  const std::vector<float> clean = fz_decompress(stream);
  const size_t payload_begin = stream.bytes.size() / 2;  // well past the preamble

  int trials = 0;
  int escapes = 0;
  for (size_t at = payload_begin; at < stream.bytes.size(); at += 97) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      CompressedBuffer bad = stream;
      bad.bytes[at] ^= mask;
      ++trials;
      bool caught = false;
      try {
        const DigestCheck check = fz_verify_digests(bad);
        caught = !check.ok;
      } catch (const Error&) {
        caught = true;  // the digest walk throwing on a corrupt chain counts
      }
      if (caught) continue;
      // Undetected flips must be semantically inert: the fixed-length
      // encoder reserves per-block capacity the decoder never reads, so a
      // flip there changes no decoded value.  Anything else escaped.
      try {
        if (fz_decompress(bad) != clean) ++escapes;
      } catch (const Error&) {
        ++escapes;  // undetected yet undecodable: worse than an escape
      }
    }
  }
  // The ISSUE's bar is >= 99.9% detection of *meaningful* corruption; the
  // checksum pair catches every decode-visible flip here outright.
  EXPECT_GE(trials, 20);
  EXPECT_EQ(escapes, 0);
}

// ---------------------------------------------------------------------------
// 3. Operators: algebraic digest folding
// ---------------------------------------------------------------------------

TEST(DigestFolding, EveryOperatorProducesASelfConsistentTable) {
  for (const DatasetId id : {DatasetId::kRtmSim1, DatasetId::kNyx, DatasetId::kCesmAtm}) {
    for (const double eb : {1e-2, 1e-4}) {
      const FzParams params = digest_params(eb);
      const CompressedBuffer a = fz_compress(test_field(id, 6000, 1), params);
      const CompressedBuffer b = fz_compress(test_field(id, 6000, 2), params);

      const auto expect_consistent = [&](const CompressedBuffer& out, const char* op) {
        const DigestCheck check = fz_verify_digests(out);
        EXPECT_TRUE(check.checked) << op << " dropped the digest table";
        EXPECT_TRUE(check.ok) << op << " folded a wrong digest (" << dataset_name(id)
                              << " eb=" << eb << ")";
      };
      expect_consistent(hz_add(a, b), "hz_add");
      expect_consistent(hz_sub(a, b), "hz_sub");
      expect_consistent(hz_negate(a), "hz_negate");
      expect_consistent(hz_scale(a, 5), "hz_scale");
      expect_consistent(hz_scale(a, -3), "hz_scale(-)");

      const CompressedBuffer c = fz_compress(test_field(id, 6000, 3), params);
      const std::vector<CompressedBuffer> ops = [&] {
        std::vector<CompressedBuffer> v;
        v.push_back(a);
        v.push_back(b);
        v.push_back(c);
        return v;
      }();
      expect_consistent(hz_add_many(ops), "hz_add_many");

      // Both operands must carry digests for the result to keep them.
      FzParams off = params;
      off.emit_digests = false;
      const CompressedBuffer bare = fz_compress(test_field(id, 6000, 2), off);
      EXPECT_FALSE(fz_verify_digests(hz_add(a, bare)).checked);
    }
  }
}

TEST(DigestFolding, FoldedChunkDigestsAreTheSumOfTheOperands) {
  const FzParams params = digest_params(1e-3);
  const CompressedBuffer a = fz_compress(test_field(DatasetId::kNyx, 8000, 1), params);
  const CompressedBuffer b = fz_compress(test_field(DatasetId::kNyx, 8000, 2), params);
  const CompressedBuffer sum = hz_add(a, b);

  const FzView va = parse_fz(a.bytes);
  const FzView vb = parse_fz(b.bytes);
  const FzView vs = parse_fz(sum.bytes);
  ASSERT_TRUE(vs.has_digests());
  ASSERT_EQ(vs.num_chunks(), va.num_chunks());
  for (uint32_t c = 0; c < vs.num_chunks(); ++c) {
    // When no raw blocks complicate the chain, the fold is the plain
    // component-wise modular sum the header comment promises.
    EXPECT_EQ(vs.chunk_digest(c), va.chunk_digest(c) + vb.chunk_digest(c)) << "chunk " << c;
  }
}

// ---------------------------------------------------------------------------
// 4. SdcInjector mechanics
// ---------------------------------------------------------------------------

TEST(SdcInjector, PoisonsExactlyOneLaneAndReplaysFromTheSeed) {
  const auto run_once = [](uint64_t seed) {
    integrity::SdcInjector inj;
    inj.seed = seed;
    inj.poison = 1.0;
    inj.rank = 3;
    std::vector<uint32_t> mags(64, 0);
    std::vector<uint32_t> signs(64, 0);
    mags[17] = 5;
    mags[40] = 9;
    const bool hit = inj.maybe_poison_combine(mags.data(), signs.data(), mags.size());
    return std::tuple(hit, signs, inj.injected, inj.counter);
  };
  const auto [hit, signs, injected, counter] = run_once(7);
  EXPECT_TRUE(hit);
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(counter, 1u);
  // Exactly one sign plane bit flipped, and only on a nonzero magnitude.
  int flipped = 0;
  for (size_t i = 0; i < signs.size(); ++i) {
    if (signs[i] != 0) {
      ++flipped;
      EXPECT_TRUE(i == 17 || i == 40) << "flipped a zero-magnitude lane " << i;
    }
  }
  EXPECT_EQ(flipped, 1);
  // Counter-based: the same seed replays the identical flip.
  EXPECT_EQ(run_once(7), std::tuple(hit, signs, injected, counter));

  // poison = 0 never fires and an unarmed thread has no injector.
  integrity::SdcInjector off;
  std::vector<uint32_t> m(8, 1), s(8, 0);
  EXPECT_FALSE(off.maybe_poison_combine(m.data(), s.data(), m.size()));
  EXPECT_EQ(integrity::sdc_injector(), nullptr);
}

// ---------------------------------------------------------------------------
// 5. Blocking collectives: detect, recover, never false-positive
// ---------------------------------------------------------------------------

RankInputFn sweep_inputs(size_t elements, DatasetId id = DatasetId::kHurricane) {
  return [elements, id](int rank) {
    return test_field(id, elements, static_cast<uint32_t>(rank));
  };
}

double max_abs_err(const std::vector<float>& got, const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(got[i]) - want[i]));
  }
  return worst;
}

TEST(VerifyPolicy, CleanRunsNeverFalsePositive) {
  const RankInputFn inputs = sweep_inputs(6000);
  for (const Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    JobConfig config;
    config.nranks = 8;
    config.abs_error_bound = 1e-3;
    config.verify = VerifyPolicy::kPerRound;
    const JobResult r = run_collective(k, Op::kAllreduce, config, inputs);
    EXPECT_GT(r.integrity.digests_checked, 0u) << kernel_name(k);
    EXPECT_EQ(r.integrity.mismatches, 0u) << kernel_name(k);
    EXPECT_TRUE(r.integrity.clean()) << kernel_name(k);

    // verify=off is the pre-integrity wire: no digests move or get checked.
    config.verify = VerifyPolicy::kOff;
    EXPECT_EQ(run_collective(k, Op::kAllreduce, config, inputs).integrity.digests_checked, 0u);
  }
}

struct SdcCase {
  Kernel kernel;
  coll::AllreduceAlgo algo;
};

class SdcSweepTest : public ::testing::TestWithParam<SdcCase> {};

TEST_P(SdcSweepTest, SeededBitFlipsAreDetectedAndRecovered) {
  const SdcCase c = GetParam();
  const RankInputFn inputs = sweep_inputs(6000);

  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.algo = c.algo;
  config.verify = VerifyPolicy::kPerRound;
  const JobResult clean = run_collective(c.kernel, Op::kAllreduce, config, inputs);
  ASSERT_TRUE(clean.integrity.clean());

  const std::vector<float> reference = exact_reduction(config.nranks, inputs);
  // Recovery must stay inside the collective's verified envelope (the
  // C-Coll growth law the chaos tier pins at 3x slack).
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;

  uint64_t faults = 0;
  uint64_t detections = 0;
  int bitwise_runs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    config.faults = FaultPlan::none();
    config.faults.seed = seed * 7919;
    config.faults.sdc = 0.04;
    const JobResult faulted = run_collective(c.kernel, Op::kAllreduce, config, inputs);
    faults += faulted.transport.faults_injected;
    detections += faulted.integrity.mismatches;
    EXPECT_LE(max_abs_err(faulted.rank0_output, reference), envelope) << "seed " << seed;
    if (faulted.integrity.raw_fallbacks == 0 && faulted.integrity.recomputes == 0 &&
        faulted.transport.raw_fallbacks == 0) {
      // Retransmit-only recovery replays the clean bytes exactly.
      EXPECT_EQ(faulted.rank0_output, clean.rank0_output) << "seed " << seed;
      ++bitwise_runs;
    }
    // Seeded replay is exact, counters and virtual time included.
    const JobResult again = run_collective(c.kernel, Op::kAllreduce, config, inputs);
    EXPECT_EQ(again.rank0_output, faulted.rank0_output);
    EXPECT_EQ(again.integrity.mismatches, faulted.integrity.mismatches);
    EXPECT_DOUBLE_EQ(again.slowest.total_seconds, faulted.slowest.total_seconds);
  }
  EXPECT_GT(faults, 0u) << "the sweep never injected a fault";
  EXPECT_GT(detections, 0u) << "no flip was caught by a digest";
  EXPECT_GE(bitwise_runs, 1) << "no seed exercised the bitwise retransmit path";
}

std::vector<SdcCase> sdc_cases() {
  std::vector<SdcCase> cases;
  for (const Kernel k : {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    for (const coll::AllreduceAlgo a :
         {coll::AllreduceAlgo::kRing, coll::AllreduceAlgo::kRecursiveDoubling,
          coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kTwoLevel}) {
      cases.push_back({k, a});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, SdcSweepTest, ::testing::ValuesIn(sdc_cases()),
                         [](const testing::TestParamInfo<SdcCase>& param) {
                           std::string name = kernel_name(param.param.kernel);
                           name += "_";
                           name += coll::allreduce_algo_name(param.param.algo);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(SdcSweep, DetectionRateClearsTheBar) {
  // The aggregate bar from the ISSUE: >= 99.9% of injected silent faults
  // detected, zero false positives.  Detection here is end-to-end — every
  // faulted run's result lands inside the verified envelope, so no injected
  // flip survived into the output.
  const RankInputFn inputs = sweep_inputs(6000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  const std::vector<float> reference = exact_reduction(config.nranks, inputs);
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;

  uint64_t injected = 0;
  uint64_t survived = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    config.faults = FaultPlan::none();
    config.faults.seed = seed;
    config.faults.sdc = 0.05;
    const JobResult r = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
    injected += r.transport.faults_injected;
    if (max_abs_err(r.rank0_output, reference) > envelope) ++survived;
  }
  ASSERT_GT(injected, 100u);
  EXPECT_EQ(survived, 0u) << "an injected flip escaped detection end to end";
}

TEST(VerifyPolicy, FinalIsDetectionWithoutRecovery) {
  // The raw stack ships a content-digest trailer per payload; under
  // verify=final a mismatch aborts the job instead of healing.  The rank
  // that caught it throws IntegrityError; its peers observe the failure as
  // a peer-rank error, and either surfaces from run_collective.
  const RankInputFn inputs = sweep_inputs(4000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kFinal;
  config.faults.seed = 11;
  config.faults.sdc = 0.2;
  EXPECT_THROW((void)run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs), Error);

  // The same plan under per-round verification heals instead of aborting.
  config.verify = VerifyPolicy::kPerRound;
  const JobResult healed = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
  EXPECT_GT(healed.integrity.mismatches, 0u);
  EXPECT_LE(max_abs_err(healed.rank0_output, exact_reduction(config.nranks, inputs)),
            3.0 * config.nranks * config.abs_error_bound + 1e-6);
}

TEST(WireSdc, CCollDocRoundsHealAnOutOfDomainPartialWithVerifyOff) {
  // Every frame carries one silent bit flip and nothing checks digests, so
  // a flip that keeps a block chain intact decodes to a wild float, and the
  // next DOC round's recompress of the partial reduced from it leaves the
  // quantization domain.  The partial is rebuilt from this rank's own block
  // and the sender's pristine stream (a raw fallback), so the job completes
  // on its first attempt, as the MPI and hZCCL stacks do.  At 8 ranks and
  // seed 7 that happens inside the reduce-scatter; at 7 ranks and seed 294
  // also to the owned block the allreduce's allgather compresses.
  const RankInputFn inputs = [](int rank) {
    return generate_field(DatasetId::kHurricane, Scale::kTiny, static_cast<uint32_t>(rank));
  };
  JobConfig config;
  config.abs_error_bound = abs_bound_from_rel(inputs(0), 1e-3);
  config.faults = FaultPlan::none();
  config.faults.sdc = 1.0;
  for (const auto& [ranks, seed] : {std::pair{8, uint64_t{7}}, std::pair{7, uint64_t{294}}}) {
    config.nranks = ranks;
    config.faults.seed = seed;
    for (const Op op : {Op::kAllreduce, Op::kReduceScatter}) {
      SCOPED_TRACE((op == Op::kAllreduce ? "allreduce at " : "reduce_scatter at ") +
                   std::to_string(ranks) + " ranks, seed " + std::to_string(seed));
      for (const Kernel k :
           {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
        SCOPED_TRACE(kernel_name(k));
        JobResult r;
        ASSERT_NO_THROW(r = run_collective(k, op, config, inputs));
        EXPECT_EQ(r.attempts, 1);
        if (k == Kernel::kCCollMultiThread && (ranks == 8 || op == Op::kAllreduce)) {
          EXPECT_GT(r.transport.raw_fallbacks, 0u);
        }
      }
    }
  }
  // Data that is itself out of the domain still raises on a faulty wire:
  // rank 3 sends that block at step 1, so its rebuilt partial fails again.
  const int n = 8;
  config.nranks = n;
  config.faults.seed = 7;
  const RankInputFn wild = [&](int rank) {
    std::vector<float> v = inputs(rank);
    if (rank == 3) v[coll::ring_block_range(v.size(), n, coll::rs_send_block(3, 1, n)).begin] = 1e30f;
    return v;
  };
  for (const Op op : {Op::kAllreduce, Op::kReduceScatter}) {
    SCOPED_TRACE(op == Op::kAllreduce ? "allreduce, 1e30 input" : "reduce_scatter, 1e30 input");
    EXPECT_THROW((void)run_collective(Kernel::kCCollMultiThread, op, config, wild),
                 QuantizationRangeError);
  }
}

TEST(VerifyPolicy, RawDigestWalksAreChargedAtTheRawStacksReduceMode) {
  // The raw stack reduces in MPI's single-threaded progress engine, and its
  // content-digest walks (the sender's trailer, the receiver's recheck) run
  // there too: RoundSim prices them single-threaded, and execution must
  // agree although Kernel::kMpi's job mode is multi-threaded.
  const RankInputFn inputs = sweep_inputs(4000);
  for (const int nranks : {4, 8}) {
    for (const coll::AllreduceAlgo algo :
         {coll::AllreduceAlgo::kRing, coll::AllreduceAlgo::kRecursiveDoubling,
          coll::AllreduceAlgo::kRabenseifner}) {
      SCOPED_TRACE(std::string(coll::allreduce_algo_name(algo)) + " at " +
                   std::to_string(nranks) + " ranks");
      JobConfig config;
      config.nranks = nranks;
      config.abs_error_bound = 1e-3;
      config.algo = algo;
      config.verify = VerifyPolicy::kPerRound;
      config.trace.enabled = true;
      const JobResult r = run_collective(Kernel::kMpi, Op::kAllreduce, config, inputs);
      size_t walks = 0;
      for (const std::vector<trace::Event>& rank : r.trace.ranks) {
        for (const trace::Event& e : rank) {
          if (e.kind != trace::EventKind::kVerify) continue;
          ++walks;
          const double want =
              config.cost.seconds_digest_verify(e.bytes, simmpi::Mode::kSingleThread);
          ASSERT_NEAR(e.duration(), want, 1e-9 * want) << "a walk of " << e.bytes << " bytes";
        }
      }
      EXPECT_GT(walks, 0u);
    }
  }
}

TEST(VerifyPolicy, TwoLevelLeaderHealsAMangledIntraNodePayload) {
  // With verify off the two-level intra-node phase ships raw floats with no
  // trailer, so a member payload the mangle fault scribbles on reaches the
  // node leader's sum and pushes it out of the quantization domain.  The
  // leader heals before any inter-node send: it refetches every member's
  // pristine payload, rebuilds the sum and compresses once more.
  JobConfig config;
  config.nranks = 6;
  config.net = NetModel::omnipath_100g_nodes(3);
  config.abs_error_bound = 1e-3;
  config.algo = coll::AllreduceAlgo::kTwoLevel;
  config.faults.seed = 8;
  config.faults.drop = 0.05;
  config.faults.corrupt = 0.03;
  config.faults.reorder = 0.1;
  config.faults.duplicate = 0.05;
  config.faults.stall = 0.05;
  config.faults.mangle = 0.05;
  const RankInputFn inputs = sweep_inputs(4000);
  const JobResult healed =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  EXPECT_EQ(healed.attempts, 1);
  EXPECT_GT(healed.transport.raw_fallbacks, 0u);
  EXPECT_EQ(healed.rank0_output.size(), 4000u);

  // A member value the quantization domain cannot carry is no wire fault:
  // its pristine payload fails the same way, and the error propagates.
  const RankInputFn out_of_domain = [&](int rank) {
    std::vector<float> v = inputs(rank);
    if (rank == 1) v[17] = 1e30f;
    return v;
  };
  EXPECT_THROW(
      (void)run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, out_of_domain),
      QuantizationRangeError);
}

TEST(VerifyPolicy, CompressedBcastChecksDigestsAtTheFinalDecode) {
  // Every frame carries one silent bit flip.  Under verify=final the
  // broadcast must refuse to decode a stream that fails its digests; under
  // verify=round each hop heals to the pristine stream instead.
  const int n = 8;
  const int root = 2;
  const std::vector<float> field = test_field(DatasetId::kCesmAtm, 5000);
  coll::CollectiveConfig cc;
  cc.abs_error_bound = 1e-3;
  // Ranks that return hold their result in `out`; a rank that catches the
  // corruption throws IntegrityError, counted before it propagates (a peer
  // still receiving may observe that failure as a peer-rank error first).
  std::vector<std::vector<float>> out;
  std::atomic<int> integrity_errors{0};
  IntegrityStats integrity;
  auto bcast_under = [&](const FaultPlan& plan) {
    simmpi::Runtime rt(n, NetModel::omnipath_100g(), plan);
    out.assign(n, {});
    integrity_errors = 0;
    rt.run([&](simmpi::Comm& comm) {
      std::vector<float> data = comm.rank() == root ? field : std::vector<float>{};
      try {
        coll::ccoll_bcast(comm, data, root, cc);
      } catch (const IntegrityError&) {
        ++integrity_errors;
        throw;
      }
      out[static_cast<size_t>(comm.rank())] = std::move(data);
    });
    integrity = total_integrity(rt.integrity_stats());
  };
  cc.verify = VerifyPolicy::kFinal;
  bcast_under(FaultPlan::none());
  const std::vector<std::vector<float>> clean = out;

  FaultPlan plan = FaultPlan::none();
  plan.seed = 7;
  plan.sdc = 1.0;
  EXPECT_THROW(bcast_under(plan), Error);
  EXPECT_GT(integrity_errors.load(), 0);
  for (int r = 0; r < n; ++r) {
    if (!out[r].empty()) EXPECT_EQ(out[r], clean[r]) << "rank " << r << " returned corrupt data";
  }

  cc.verify = VerifyPolicy::kPerRound;
  bcast_under(plan);
  for (int r = 0; r < n; ++r) EXPECT_EQ(out[r], clean[r]) << "rank " << r;
  // Each of the 7 hops fails its digests on receive and again after the
  // retransmit (the flip re-rolls onto every copy), then takes the pristine
  // stream.
  EXPECT_EQ(integrity.mismatches, 14u);
  EXPECT_EQ(integrity.retransmit_recoveries, 0u);
  EXPECT_EQ(integrity.raw_fallbacks, 7u);
}

TEST(VerifyPolicy, RawBcastAndGatherCheckDigestsOnEveryHop) {
  // Every frame carries one silent bit flip.  Under verify=final a raw
  // broadcast or gather hop refuses a payload that fails its content digest;
  // under verify=round each hop heals to the pristine payload.  With
  // verification off nothing extra travels or is charged: one frame per
  // tree edge and no digest walk.
  const int n = 8;
  const int root = 2;
  const size_t slice = 600;
  const std::vector<float> field = test_field(DatasetId::kCesmAtm, slice * n);
  struct Run {
    std::vector<std::vector<float>> out;
    bool threw = false;
    int integrity_errors = 0;
    uint64_t frames = 0;
    uint64_t verify_spans = 0;
  };
  auto run_under = [&](bool gather, VerifyPolicy verify, const FaultPlan& plan) {
    coll::CollectiveConfig cc;
    cc.verify = verify;
    simmpi::Runtime rt(n, NetModel::omnipath_100g(), plan, trace::Options{.enabled = true});
    Run r;
    r.out.assign(n, {});
    std::atomic<int> integrity_errors{0};
    try {
      rt.run([&](simmpi::Comm& comm) {
        std::vector<float> data;
        try {
          if (gather) {
            const std::span<const float> mine(field.data() + slice * comm.rank(), slice);
            coll::raw_gather(comm, mine, root, data, cc);
          } else {
            if (comm.rank() == root) data = field;
            coll::raw_bcast(comm, data, root, cc);
          }
        } catch (const IntegrityError&) {
          ++integrity_errors;
          throw;
        }
        r.out[static_cast<size_t>(comm.rank())] = std::move(data);
      });
    } catch (const Error&) {
      r.threw = true;
    }
    r.integrity_errors = integrity_errors.load();
    for (const TransportStats& t : rt.transport_stats()) r.frames += t.frames_sent;
    for (const auto& events : rt.trace().ranks) {
      for (const trace::Event& e : events) r.verify_spans += e.kind == trace::EventKind::kVerify;
    }
    return r;
  };

  FaultPlan plan = FaultPlan::none();
  plan.seed = 7;
  plan.sdc = 1.0;
  for (const bool gather : {false, true}) {
    SCOPED_TRACE(gather ? "raw_gather" : "raw_bcast");
    const Run clean = run_under(gather, VerifyPolicy::kOff, FaultPlan::none());
    ASSERT_FALSE(clean.threw);
    EXPECT_EQ(clean.frames, static_cast<uint64_t>(n - 1));
    EXPECT_EQ(clean.verify_spans, 0u);
    EXPECT_EQ(run_under(gather, VerifyPolicy::kFinal, FaultPlan::none()).out, clean.out);

    const Run detected = run_under(gather, VerifyPolicy::kFinal, plan);
    EXPECT_TRUE(detected.threw);
    EXPECT_GT(detected.integrity_errors, 0);
    for (int r = 0; r < n; ++r) {
      const auto ur = static_cast<size_t>(r);
      if (!detected.out[ur].empty()) {
        EXPECT_EQ(detected.out[ur], clean.out[ur]) << "rank " << r << " returned corrupt data";
      }
    }

    const Run healed = run_under(gather, VerifyPolicy::kPerRound, plan);
    EXPECT_FALSE(healed.threw);
    EXPECT_EQ(healed.out, clean.out);
  }
}

TEST(PoisonedCombine, ComputeSideCorruptionRecoversWithoutTheWire) {
  // poison leaves FaultPlan::enabled() false: the transport runs its clean
  // fast path (no in-flight window) and recovery must come from recompute
  // or the local float-domain rebuild, never a retransmit.
  const RankInputFn inputs = sweep_inputs(6000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  const std::vector<float> reference = exact_reduction(config.nranks, inputs);
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;

  config.faults.seed = 5;
  config.faults.poison = 0.05;
  const JobResult r = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  EXPECT_GT(r.integrity.poisoned_combines, 0u);
  EXPECT_GT(r.integrity.mismatches, 0u);
  EXPECT_GT(r.integrity.recomputes + r.integrity.raw_fallbacks, 0u);
  EXPECT_EQ(r.integrity.retransmit_recoveries, 0u);
  EXPECT_EQ(r.transport.faults_injected, 0u);
  EXPECT_LE(max_abs_err(r.rank0_output, reference), envelope);

  // Undetected poison is the counter-example verify exists for: with
  // verify=off the same plan corrupts the result beyond the envelope.
  config.verify = VerifyPolicy::kOff;
  const JobResult blind = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  EXPECT_GT(max_abs_err(blind.rank0_output, reference), envelope);
}

TEST(VerifyPolicy, WireSdcWithVerifyOffHealsABrokenBlockChain) {
  // A payload bit flipped before the CRC seal can land on a code-length
  // byte: the stream still parses, but its block chain no longer holds
  // together.  Under a link-fault plan the receive check walks every chain,
  // so the stream heals (retransmit, then raw fallback) instead of throwing
  // in the later decode, with no digests to help.  Without the walk this
  // plan and input abort the C-Coll ring with "decode_block: truncated
  // block payload".
  JobConfig config;
  config.nranks = 6;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kOff;
  config.faults = FaultPlan::parse("9,0,0,0,0,0,0,50e-6,200e-6,0.05");
  const RankInputFn inputs = sweep_inputs(4096);
  for (const Kernel k : {Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
    const JobResult r = run_collective(k, Op::kAllreduce, config, inputs);
    EXPECT_EQ(r.attempts, 1) << kernel_name(k);
    EXPECT_GT(r.transport.faults_injected, 0u) << kernel_name(k);
    EXPECT_GT(r.transport.retransmits + r.transport.raw_fallbacks, 0u) << kernel_name(k);
  }
}

TEST(IntegrityStats, CountersStayInternallyConsistent) {
  const RankInputFn inputs = sweep_inputs(6000);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  config.faults.seed = 7;
  config.faults.sdc = 0.05;
  const JobResult r = run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  // Every recovery was provoked by a counted detection.
  EXPECT_LE(r.integrity.retransmit_recoveries + r.integrity.recomputes, r.integrity.mismatches);
  EXPECT_LE(r.integrity.mismatches, r.integrity.digests_checked);
  // The per-rank vectors sum to the roll-up.
  IntegrityStats sum;
  for (const IntegrityStats& s : r.integrity_per_rank) sum += s;
  EXPECT_EQ(sum.mismatches, r.integrity.mismatches);
  EXPECT_EQ(sum.digests_checked, r.integrity.digests_checked);
}

// ---------------------------------------------------------------------------
// 6. Sched: wire and compute-side SDC on the engine, and tainted fused
//    super-jobs
// ---------------------------------------------------------------------------

using sched::Engine;
using sched::EngineConfig;
using sched::ICollOp;
using sched::Scheduler;
using sched::SchedulerConfig;
using sched::TenantJobResult;
using sched::TenantJobSpec;

TEST(SchedIntegrity, TheEngineRejectsWireSdcPlans) {
  // Wire SDC runs on the engine's link layer like any link fault; only an
  // invalid plan is rejected.
  EngineConfig invalid;
  invalid.fleet_ranks = 4;
  invalid.faults.sdc = 1.5;
  EXPECT_THROW(Engine{invalid}, Error);
  EngineConfig valid = invalid;
  valid.faults.sdc = 0.1;
  EXPECT_NO_THROW(Engine{valid});
}

TEST(SchedIntegrity, AnArmedInjectorTaintsAnEngineJob) {
  const RankInputFn inputs = sweep_inputs(6000, DatasetId::kNyx);
  EngineConfig ec;
  ec.fleet_ranks = 8;
  Engine engine(ec);
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  const sched::Request req =
      engine.submit(Kernel::kHzcclMultiThread, ICollOp::kAllreduce, config, inputs);
  {
    integrity::SdcInjector inj;
    inj.seed = 3;
    inj.poison = 1.0;
    const integrity::ScopedSdcInjector scoped(&inj);
    engine.run();
    EXPECT_GT(inj.injected, 0u);
  }
  const sched::JobOutcome& out = engine.outcome(req);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_FALSE(out.integrity.clean());
  EXPECT_GT(out.integrity.mismatches, 0u);
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;
  EXPECT_LE(max_abs_err(out.rank0_output, exact_reduction(config.nranks, inputs)), envelope);
}

TEST(SchedIntegrity, PlanPoisonMatchesTheThreadedRuntime) {
  // FaultPlan::poison is compute-side, so the engine honours it: each rank
  // runs under its own injector, seeded by the plan and keyed by the rank's
  // job-relative physical rank exactly as the threaded runtime keys its rank
  // threads.  A solo job therefore poisons the same combines, heals them the
  // same way and lands the same bytes and counters as run_collective.
  const RankInputFn inputs = sweep_inputs(6000, DatasetId::kNyx);
  FaultPlan plan;
  plan.seed = 3;
  plan.poison = 0.05;
  JobConfig config;
  config.nranks = 8;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  config.faults = plan;
  const JobResult blocking =
      run_collective(Kernel::kHzcclMultiThread, Op::kAllreduce, config, inputs);
  ASSERT_GT(blocking.integrity.poisoned_combines, 0u);
  ASSERT_GT(blocking.integrity.mismatches, 0u);

  EngineConfig ec;
  ec.fleet_ranks = 8;
  ec.faults = plan;
  Engine engine(ec);
  const sched::Request req =
      engine.submit(Kernel::kHzcclMultiThread, ICollOp::kAllreduce, config, inputs);
  engine.run();
  const sched::JobOutcome& out = engine.outcome(req);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.rank0_output, blocking.rank0_output);
  EXPECT_EQ(describe(out.integrity), describe(blocking.integrity));
}

TEST(SchedIntegrity, ATaintedFusedSuperJobIsReverifiedPerMember) {
  // Two small same-shape allreduces fuse into one super-job; a poisoned
  // combine taints it, and the Scheduler re-verifies each member's slice
  // against that member's own exact reduction before the split.
  SchedulerConfig sc;
  sc.engine.fleet_ranks = 4;
  Scheduler scheduler(sc);

  JobConfig config;
  config.nranks = 4;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;

  const auto member_inputs = [](uint32_t salt) {
    return RankInputFn([salt](int rank) {
      return test_field(DatasetId::kHurricane, 4000, salt * 16 + static_cast<uint32_t>(rank));
    });
  };
  for (uint32_t m = 0; m < 2; ++m) {
    TenantJobSpec spec;
    spec.tenant = "t0";
    spec.kernel = Kernel::kHzcclMultiThread;
    spec.config = config;
    spec.input = member_inputs(m);
    scheduler.submit(spec);
  }
  {
    integrity::SdcInjector inj;
    inj.seed = 9;
    inj.poison = 1.0;
    const integrity::ScopedSdcInjector scoped(&inj);
    scheduler.run();
    EXPECT_GT(inj.injected, 0u);
  }
  const std::vector<TenantJobResult>& results = scheduler.results();
  ASSERT_EQ(results.size(), 2u);
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;
  for (uint32_t m = 0; m < 2; ++m) {
    const TenantJobResult& r = results[m];
    ASSERT_TRUE(r.fused) << "the jobs were expected to fuse";
    EXPECT_TRUE(r.reverified) << "member " << m << " skipped re-verification";
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_FALSE(r.integrity.clean());
    EXPECT_LE(max_abs_err(r.rank0_output, exact_reduction(config.nranks, member_inputs(m))),
              envelope)
        << "member " << m;
  }

  // The same workload without an armed injector is untainted: no
  // re-verification, clean counters, and fused results unchanged in spirit.
  Scheduler calm(sc);
  for (uint32_t m = 0; m < 2; ++m) {
    TenantJobSpec spec;
    spec.tenant = "t0";
    spec.kernel = Kernel::kHzcclMultiThread;
    spec.config = config;
    spec.input = member_inputs(m);
    calm.submit(spec);
  }
  calm.run();
  for (const TenantJobResult& r : calm.results()) {
    EXPECT_TRUE(r.completed) << r.error;
    EXPECT_FALSE(r.reverified);
    EXPECT_TRUE(r.integrity.clean());
  }
}

TEST(SchedIntegrity, WireSdcHealedInAFusedSuperJobStillTaintsIt) {
  // Two small same-shape allreduces fuse into one super-job, and the
  // fleet's plan flips payload bits on the wire.  Per-round verification
  // catches and heals every flip, so the job completes within its envelope,
  // but its counters show the detections: it is tainted, and the Scheduler
  // re-verifies each member's slice before the split.
  SchedulerConfig sc;
  sc.engine.fleet_ranks = 4;
  sc.engine.faults.seed = 5;
  sc.engine.faults.sdc = 0.2;
  Scheduler scheduler(sc);

  JobConfig config;
  config.nranks = 4;
  config.abs_error_bound = 1e-3;
  config.verify = VerifyPolicy::kPerRound;
  const auto member_inputs = [](uint32_t salt) {
    return RankInputFn([salt](int rank) {
      return test_field(DatasetId::kHurricane, 4000, salt * 16 + static_cast<uint32_t>(rank));
    });
  };
  for (uint32_t m = 0; m < 2; ++m) {
    TenantJobSpec spec;
    spec.tenant = "t0";
    spec.kernel = Kernel::kHzcclMultiThread;
    spec.config = config;
    spec.input = member_inputs(m);
    scheduler.submit(spec);
  }
  scheduler.run();

  const std::vector<TenantJobResult>& results = scheduler.results();
  ASSERT_EQ(results.size(), 2u);
  const double envelope = 3.0 * config.nranks * config.abs_error_bound + 1e-6;
  for (uint32_t m = 0; m < 2; ++m) {
    const TenantJobResult& r = results[m];
    ASSERT_TRUE(r.fused) << "the jobs were expected to fuse";
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_TRUE(r.reverified) << "member " << m << " skipped re-verification";
    EXPECT_FALSE(r.integrity.clean());
    EXPECT_GT(r.integrity.mismatches, 0u);
    EXPECT_EQ(r.integrity.poisoned_combines, 0u) << "no compute-side fault was armed";
    EXPECT_LE(max_abs_err(r.rank0_output, exact_reduction(config.nranks, member_inputs(m))),
              envelope)
        << "member " << m;
  }
  const sched::JobOutcome& super_job =
      scheduler.engine().outcome(sched::Request{results[0].engine_job});
  EXPECT_GT(super_job.transport.faults_injected, 0u);
  EXPECT_GT(super_job.transport.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// 6. Model: RoundSim prices the digest ladder at scale
// ---------------------------------------------------------------------------

TEST(ModeledVerify, RoundSimPricesTheDigestLadderAtScale) {
  std::vector<std::vector<float>> fields;
  for (uint32_t i = 0; i < 4; ++i) {
    fields.push_back(generate_field(DatasetId::kHurricane, Scale::kTiny, i));
  }
  FzParams params;
  params.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  const auto profile = cluster::CompressionProfile::measure(fields, params, 8);
  const auto net = NetModel::omnipath_100g();
  const auto cost = simmpi::CostModel::paper_broadwell();
  constexpr size_t kBytes = size_t{8} << 20;

  for (const auto algo :
       {coll::AllreduceAlgo::kRing, coll::AllreduceAlgo::kRecursiveDoubling,
        coll::AllreduceAlgo::kRabenseifner, coll::AllreduceAlgo::kTwoLevel}) {
    for (const Kernel kernel :
         {Kernel::kMpi, Kernel::kCCollMultiThread, Kernel::kHzcclMultiThread}) {
      const auto model = [&](VerifyPolicy v) {
        return cluster::model_allreduce_algo(kernel, algo, 512, kBytes, profile, net, cost, v);
      };
      const auto off = model(VerifyPolicy::kOff);
      const auto fin = model(VerifyPolicy::kFinal);
      const auto round = model(VerifyPolicy::kPerRound);
      // Off charges nothing, and every walk lands in vrf_seconds and the
      // total.  Raw and C-Coll walk what they exchange under either policy;
      // hZ adds the per-round walks of received streams and combine outputs
      // to the final decode's — a strict ladder.
      EXPECT_EQ(off.vrf_seconds, 0.0);
      EXPECT_GT(fin.vrf_seconds, 0.0);
      if (kernel == Kernel::kHzcclMultiThread) {
        EXPECT_GT(round.vrf_seconds, fin.vrf_seconds);
      } else {
        EXPECT_EQ(round.vrf_seconds, fin.vrf_seconds);
      }
      EXPECT_NEAR(round.seconds - off.seconds, round.vrf_seconds, 1e-12);
    }
  }

  // The co-design claim the bench gate enforces: at the paper's 512-rank
  // scalability point, per-round verification of the compressed ring stays
  // under 5% of the modeled end-to-end allreduce — the digest walks ride on
  // compressed bytes while the congested inter-node transfers dominate.
  const auto hz = [&](VerifyPolicy v) {
    return cluster::model_allreduce_algo(Kernel::kHzcclMultiThread, coll::AllreduceAlgo::kRing,
                                         512, kBytes, profile, net, cost, v)
        .seconds;
  };
  EXPECT_LT(hz(VerifyPolicy::kPerRound) / hz(VerifyPolicy::kOff), 1.05);
}

}  // namespace
}  // namespace hzccl

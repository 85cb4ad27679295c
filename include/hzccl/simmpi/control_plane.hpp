// The rank-failure control plane: one protocol, two drivers.  Every
// recovery decision derives from final facts — a rank is dead, parked in the
// agreement, or finished — and their virtual stop times, never from
// wall-clock races: the health machine's deadlines against a silent peer,
// the release of the barrier, the agreement and the shrink (each at its
// latest arrival plus a latency-priced hop count), and the retry backoff.
// Single-threaded and deterministic: simmpi::Runtime drives one instance
// under its control mutex, sched::Engine one per job from its event loop.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "hzccl/simmpi/faults.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl::simmpi {

class ControlPlane {
 public:
  /// Ground truth about one rank.
  struct RankState {
    bool dead = false;        ///< crashed or hung: will never execute again
    bool stopped = false;     ///< parked in the current agreement round
    bool finished = false;    ///< rank function returned; agrees with anything
    bool shrinking = false;   ///< arrived at the shrink in progress
    double stop_vtime = 0.0;  ///< virtual time of death / park / finish

    /// Hopeless to wait for: this rank sends nothing more this attempt.
    bool silent() const { return dead || stopped || finished; }
  };

  /// One rendezvous.  Arrivals fold in their virtual times; completing the
  /// round releases its waiters at the latest arrival plus `hops`
  /// latency-priced messages and moves the generation they wait on.
  struct Round {
    uint64_t generation = 0;
    int arrived = 0;       ///< waiters of the round in progress
    double latest = 0.0;   ///< latest arrival of the round in progress
    double release = 0.0;  ///< release time of the last completed round

    void arrive(double vtime) {
      ++arrived;
      latest = std::max(latest, vtime);
    }
    void complete(double hops, double latency_s) {
      release = latest + hops * latency_s;
      arrived = 0;
      latest = 0.0;
      ++generation;
    }
  };

  enum class RoundKind { kBarrier, kAgreement, kShrink };

  ControlPlane() = default;
  /// Ranks 0..nranks-1, all members of epoch 0; hops cost `latency_s`, and
  /// `faults` sets the health machine's timeouts and the backoff's seed.
  ControlPlane(int nranks, double latency_s, const FaultPlan& faults)
      : latency_s_(latency_s), recv_timeout_s_(faults.recv_timeout_s),
        fail_timeout_s_(faults.fail_timeout_s), seed_(faults.seed), ranks_(nranks),
        members_(nranks) {
    std::iota(members_.begin(), members_.end(), 0);
  }

  /// Back to epoch 0 over `members` (ascending), all alive, no round open.
  void reset(std::vector<int> members) {
    std::fill(ranks_.begin(), ranks_.end(), RankState{});
    members_ = std::move(members);
    epoch_ = 0;
    rounds_ = {};
    agreed_failed_.clear();
  }

  const RankState& state(int rank) const { return ranks_[static_cast<size_t>(rank)]; }
  const std::vector<int>& members() const { return members_; }
  /// The group's epoch; a failed agreement ran under the current one.
  uint32_t epoch() const { return epoch_; }
  const Round& round(RoundKind kind) const { return rounds_[static_cast<size_t>(kind)]; }
  /// A waiter gives up on the round in progress (hopeless, or aborted).
  void leave(RoundKind kind) { --at(kind).arrived; }

  /// `rank` stops for good at `vtime`: dead, or finished.  Completes any
  /// round that verdict settles.
  void retire(int rank, bool dead, double vtime) {
    RankState& st = ranks_[static_cast<size_t>(rank)];
    (dead ? st.dead : st.finished) = true;
    st.stop_vtime = vtime;
    try_complete_agreement();
    try_complete_shrink();
  }

  /// The health machine: a receiver blocked at `now` on a silent peer that
  /// stopped at `stop_vtime` (< 0 when unknown) turns it Suspect
  /// recv_timeout_s after the later of the two, and Dead fail_timeout_s on.
  double suspect_at(double now, double stop_vtime) const {
    return std::max(now, stop_vtime) + recv_timeout_s_;
  }
  double dead_at(double now, double stop_vtime) const {
    return suspect_at(now, stop_vtime) + fail_timeout_s_;
  }

  /// Arrive at the barrier, a dissemination round of ceil(log2 P) hops;
  /// returns the generation to wait past.
  uint64_t arrive_barrier(double vtime) {
    Round& barrier = at(RoundKind::kBarrier);
    const uint64_t generation = barrier.generation;
    barrier.arrive(vtime);
    const size_t n = members_.size();
    if (barrier.arrived == static_cast<int>(n)) {
      barrier.complete(n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 0.0, latency_s_);
    }
    return generation;
  }
  /// True when a member other than `rank` can never arrive.
  bool barrier_hopeless(int rank) const {
    return std::any_of(members_.begin(), members_.end(),
                       [&](int m) { return m != rank && state(m).silent(); });
  }

  /// Park `rank` in the agreement; returns the generation to wait past.
  uint64_t arrive_agreement(int rank, double vtime) {
    RankState& st = ranks_[static_cast<size_t>(rank)];
    st.stopped = true;
    st.stop_vtime = vtime;
    const uint64_t generation = at(RoundKind::kAgreement).generation;
    at(RoundKind::kAgreement).arrive(vtime);
    try_complete_agreement();
    return generation;
  }
  /// Verdict of the last completed agreement: its dead members, stable
  /// until the shrink that follows completes.
  const std::vector<int>& agreed_failed() const { return agreed_failed_; }

  /// Arrive at the shrink after a failed agreement; returns the generation
  /// to wait past.  Each failed verdict licenses one shrink: the one that
  /// completes clears it, so a second call has nothing to recover from.
  uint64_t arrive_shrink(int rank, double vtime) {
    if (agreed_failed_.empty()) {
      throw hzccl::Error("shrink: no failed agreement to recover from");
    }
    Round& shrink = at(RoundKind::kShrink);
    ranks_[static_cast<size_t>(rank)].shrinking = true;
    const uint64_t generation = shrink.generation;
    shrink.arrive(vtime);
    try_complete_shrink();
    return generation;
  }

  /// Virtual seconds a survivor waits after `failures` failed attempts.
  double backoff(const RetryPolicy& policy, int failures) const {
    return policy.backoff_for(failures, seed_);
  }

 private:
  /// Ring collect + broadcast over `n` ranks: 2(n-1) latency-priced hops.
  static double ring_hops(size_t n) { return n > 1 ? 2.0 * static_cast<double>(n - 1) : 0.0; }

  Round& at(RoundKind kind) { return rounds_[static_cast<size_t>(kind)]; }

  bool agreed_dead(int rank) const {
    return std::find(agreed_failed_.begin(), agreed_failed_.end(), rank) != agreed_failed_.end();
  }

  /// A round is in progress once a member parked in it, and completes when
  /// every member has a final verdict: parked, dead, or finished.  Counting
  /// arrivals rather than parked flags matters after a failed round, whose
  /// flags stay set: a rank retiring then must not complete a phantom round
  /// over the release time its peers have yet to read.
  void try_complete_agreement() {
    Round& agreement = at(RoundKind::kAgreement);
    const auto silent = [&](int m) { return state(m).silent(); };
    if (agreement.arrived == 0 || !std::all_of(members_.begin(), members_.end(), silent)) return;
    agreed_failed_.clear();
    std::copy_if(members_.begin(), members_.end(), std::back_inserter(agreed_failed_),
                 [&](int m) { return state(m).dead; });
    // Ring collect + broadcast of the failed-rank set over the survivors,
    // skipping dead hops: 2(S-1) hops after the last arrival.
    agreement.complete(ring_hops(members_.size() - agreed_failed_.size()), latency_s_);
    if (agreed_failed_.empty()) {
      // Unanimous success: the group continues unchanged into the next round.
      for (int m : members_) ranks_[static_cast<size_t>(m)].stopped = false;
    }
    // On failure the parked flags stay set until the shrink installs the new
    // epoch: a failed-epoch rank must remain hopeless to wait for.
  }

  /// Once every agreed survivor has arrived or died on the way, install the
  /// next epoch over them after 2(n-1) hops over its n members.  A rank that
  /// died *during* the shrink stays in the new group as a dead member; the
  /// next attempt detects it and shrinks again.
  void try_complete_shrink() {
    Round& shrink = at(RoundKind::kShrink);
    if (agreed_failed_.empty() || shrink.arrived == 0) return;  // no shrink in progress
    for (int m : members_) {
      const RankState& st = state(m);
      if (!agreed_dead(m) && !st.shrinking && !st.dead && !st.finished) return;
    }
    std::erase_if(members_, [&](int m) { return agreed_dead(m); });
    ++epoch_;
    for (RankState& st : ranks_) st.stopped = st.shrinking = false;
    agreed_failed_.clear();
    shrink.complete(ring_hops(members_.size()), latency_s_);
  }

  double latency_s_ = 0.0;
  double recv_timeout_s_ = 0.0;
  double fail_timeout_s_ = 0.0;
  uint64_t seed_ = 0;

  std::vector<RankState> ranks_;
  std::vector<int> members_;  ///< the current group, ascending
  uint32_t epoch_ = 0;
  std::array<Round, 3> rounds_{};  ///< by RoundKind
  std::vector<int> agreed_failed_;
};

}  // namespace hzccl::simmpi

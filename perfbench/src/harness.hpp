// The serving harness every workload shares: a closed loop on one caller
// thread that feeds a merged arrival stream into a ScalerFleet and plans
// every tenant at each boundary, timing each call from outside the library.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "rs/api/api.hpp"
#include "rs/api/serving_tap.hpp"
#include "rs/wal/wal.hpp"

namespace pb {

/// Derives an independent 64-bit seed for (run seed, stream, index).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index = 0);

/// nproc / 2, at least 1: the worker count of every fleet and training pool
/// (the caller thread joins the workers inside ParallelFor).
std::size_t Workers();

struct Arrival {
  double t;
  std::uint32_t tenant;
};

/// The generated serving input: arrivals sorted by (time, tenant) and the
/// plan boundary grid every `plan_every` serving seconds up to `horizon`.
struct Stream {
  std::vector<Arrival> arrivals;
  double plan_every = 5.0;
  double horizon = 0.0;
  /// When non-zero, a pass cut short by its deadline stops only before a
  /// boundary at cut_phase modulo cut_every, so every cut leaves the same
  /// amount of state behind it (the journal tail recovery replays).
  double cut_every = 0.0;
  double cut_phase = 0.0;
};

/// Strategy kind of a tenant, used to label its plan spans.
enum class Kind { kHp, kRt, kCost, kBp };
const char* KindName(Kind kind);
Kind KindOf(const std::string& spec);

/// A fleet ready to serve, with the names and kinds of its tenants in
/// registration order.
struct Fleet {
  std::unique_ptr<rs::api::ScalerFleet> fleet;
  std::vector<std::string> names;
  std::vector<Kind> kinds;
  std::string error;  ///< Why set-up failed (fleet is null then).
};

/// Runs after each boundary's plan with (boundary time, boundary index);
/// returns the time it spent on the benchmark's own bookkeeping, which the
/// serving time excludes.
using BoundaryHook = std::function<Clocks(double, std::size_t)>;

struct ServeOptions {
  /// Traced pass: spans for every call, and per-tenant Plan calls in place
  /// of PlanAll.
  Tracer* tracer = nullptr;
  /// Stop before this boundary (the traced pass replays the untraced
  /// pass's prefix exactly).
  std::size_t max_boundaries = static_cast<std::size_t>(-1);
  /// Stop at the first boundary at or after this steady-clock time.
  std::int64_t deadline_ns = INT64_MAX;
  BoundaryHook after_boundary;
  /// Reused for the per-arrival samples when its capacity suffices, so a
  /// run can allocate it before set-up.
  std::vector<float> observe_buffer;
};

struct ServeResult {
  std::vector<float> observe_ns;   ///< One per arrival.
  std::vector<double> plan_ns;     ///< One per boundary (all tenants), wall.
  std::vector<double> plan_cpu_ns; ///< The same boundaries, process CPU.
  /// Per boundary: some tenant returned a non-empty action.
  std::vector<char> decided;
  std::size_t arrivals = 0;
  std::size_t boundaries = 0;
  bool completed = false;  ///< Served the whole stream.
  double serve_s = 0.0;    ///< Wall time of the loop minus bookkeeping.
  double serve_cpu_s = 0.0;  ///< Process CPU time of the loop minus bookkeeping.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> digest;  ///< Per tenant, outcomes + actions.
};

ServeResult Serve(Fleet* fleet, const Stream& stream,
                  ServeOptions options);

/// A ServingTap that forwards every call to a FleetJournal and times the
/// OnObserve/OnPlan/OnPlanAll calls as child spans of the current span.
class TimedJournalTap final : public rs::api::ServingTap {
 public:
  TimedJournalTap(rs::wal::FleetJournal* journal, Tracer* tracer);
  void OnRegister(const std::string& tenant,
                  const rs::api::Scaler& scaler) override;
  void OnRetire(const std::string& tenant) override;
  void OnReplaceModel(const std::string& tenant,
                      const rs::api::Scaler& incoming,
                      bool at_next_plan) override;
  void OnObserve(const std::string& tenant, double arrival_time,
                 const rs::api::Scaler::ObserveOutcome& outcome) override;
  void OnPlan(const std::string& tenant, double now,
              const rs::sim::ScalingAction& action,
              const rs::api::TapClockMark& clock) override;
  void OnPlanAll(double now,
                 const std::vector<rs::api::ScalerFleet::TenantPlan>& plans,
                 const std::vector<rs::api::TapClockMark>& clocks) override;

 private:
  rs::wal::FleetJournal* journal_;
  Tracer* tracer_;
  std::uint32_t span_;
};

/// Fleet health counters summed over tenants.
struct HealthCounts {
  std::uint64_t plan_failures = 0;
  std::uint64_t fallbacks_served = 0;
  std::uint64_t rejected_observations = 0;
};
HealthCounts CountHealth(const rs::api::ScalerFleet& fleet);

/// SaveFleet into memory.
std::string SaveFleetBytes(const rs::api::ScalerFleet& fleet);

}  // namespace pb

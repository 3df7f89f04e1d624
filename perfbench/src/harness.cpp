#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

namespace pb {

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t Workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, n / 2);
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHp: return "hp";
    case Kind::kRt: return "rt";
    case Kind::kCost: return "cost";
    case Kind::kBp: return "bp";
  }
  return "?";
}

Kind KindOf(const std::string& spec) {
  if (spec.rfind("robust_hp", 0) == 0) return Kind::kHp;
  if (spec.rfind("robust_rt", 0) == 0) return Kind::kRt;
  if (spec.rfind("robust_cost", 0) == 0) return Kind::kCost;
  return Kind::kBp;
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

void Fold(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ull;
  }
}

bool NonEmpty(const rs::sim::ScalingAction& action) {
  return !action.creation_times.empty() || action.deletions > 0;
}

void FoldAction(std::uint64_t* h, const rs::sim::ScalingAction& action) {
  const std::uint64_t count = action.creation_times.size();
  Fold(h, &count, sizeof(count));
  if (count > 0) {
    Fold(h, action.creation_times.data(), count * sizeof(double));
  }
  const std::uint64_t deletions = action.deletions;
  Fold(h, &deletions, sizeof(deletions));
}

// Boundary ids carry the top bit so they never collide with arrival ids.
constexpr std::uint64_t kBoundaryBit = 1ull << 63;

}  // namespace

ServeResult Serve(Fleet* f, const Stream& stream, ServeOptions options) {
  rs::api::ScalerFleet& fleet = *f->fleet;
  Tracer* tracer = options.tracer;
  const std::size_t tenants = f->names.size();
  ServeResult r;
  r.digest.assign(tenants, kFnvBasis);
  // Sized and touched up front, so the process's peak memory does not
  // depend on how far a pass gets.
  r.observe_ns = std::move(options.observe_buffer);
  r.observe_ns.assign(stream.arrivals.size(), 0.0f);
  const auto max_boundaries = static_cast<std::size_t>(stream.horizon / stream.plan_every) + 2;
  r.plan_ns.reserve(max_boundaries);
  r.plan_cpu_ns.reserve(max_boundaries);
  r.decided.reserve(max_boundaries);

  std::uint32_t observe_span = 0, boundary_span = 0;
  std::vector<std::uint32_t> plan_span(tenants, 0);
  if (tracer != nullptr) {
    observe_span = tracer->Intern("api.Observe");
    boundary_span = tracer->Intern("api.boundary");
    for (std::size_t i = 0; i < tenants; ++i) {
      plan_span[i] = tracer->Intern(std::string("api.Plan.") + KindName(f->kinds[i]));
    }
  }

  Clocks excluded;
  const Clocks start = Clocks::Now();
  double next_plan = stream.plan_every;
  std::size_t i = 0;
  const std::size_t n = stream.arrivals.size();
  while (true) {
    if (i < n && stream.arrivals[i].t < next_plan) {
      const Arrival& a = stream.arrivals[i];
      const std::int64_t t0 = NowNs();
      const auto outcome = [&] {
        Scope span(tracer, observe_span, i);
        return fleet.Observe(f->names[a.tenant], a.t);
      }();
      r.observe_ns[r.arrivals] = static_cast<float>(NowNs() - t0);
      ++r.attempted;
      if (outcome.ok()) {
        const unsigned char bits = static_cast<unsigned char>(
            (outcome->cold_start ? 1 : 0) | (outcome->cancel_earliest_scheduled ? 2 : 0));
        Fold(&r.digest[a.tenant], &bits, 1);
      } else {
        ++r.failed;
      }
      ++i;
      ++r.arrivals;
      continue;
    }
    if (next_plan > stream.horizon) {
      r.completed = true;
      break;
    }
    if (r.boundaries >= options.max_boundaries) break;
    if (NowNs() >= options.deadline_ns &&
        (stream.cut_every == 0.0 ||
         std::fmod(next_plan, stream.cut_every) == stream.cut_phase)) {
      break;
    }
    const std::uint64_t id = kBoundaryBit | r.boundaries;
    const Clocks t0 = Clocks::Now();
    bool decided = false;
    if (tracer == nullptr) {
      const auto plans = fleet.PlanAll(next_plan);
      const Clocks took = Clocks::Now() - t0;
      r.plan_ns.push_back(static_cast<double>(took.wall_ns));
      r.plan_cpu_ns.push_back(static_cast<double>(took.cpu_ns));
      for (std::size_t k = 0; k < plans.size(); ++k) {
        ++r.attempted;
        if (!plans[k].status.ok()) {
          ++r.failed;
          continue;
        }
        decided = decided || NonEmpty(plans[k].action);
        FoldAction(&r.digest[k], plans[k].action);
      }
    } else {
      tracer->Begin(boundary_span, id);
      for (std::size_t k = 0; k < tenants; ++k) {
        const auto action = [&] {
          Scope span(tracer, plan_span[k], id);
          return fleet.Plan(f->names[k], next_plan);
        }();
        ++r.attempted;
        if (!action.ok()) {
          ++r.failed;
          continue;
        }
        decided = decided || NonEmpty(*action);
        FoldAction(&r.digest[k], *action);
      }
      tracer->End();
      const Clocks took = Clocks::Now() - t0;
      r.plan_ns.push_back(static_cast<double>(took.wall_ns));
      r.plan_cpu_ns.push_back(static_cast<double>(took.cpu_ns));
    }
    r.decided.push_back(decided ? 1 : 0);
    ++r.boundaries;
    if (options.after_boundary) {
      excluded += options.after_boundary(next_plan, r.boundaries - 1);
    }
    next_plan += stream.plan_every;
  }
  const Clocks served = Clocks::Now() - start - excluded;
  r.serve_s = static_cast<double>(served.wall_ns) * 1e-9;
  r.serve_cpu_s = static_cast<double>(served.cpu_ns) * 1e-9;
  r.observe_ns.resize(r.arrivals);
  // A boundary served by fallback returns OK with an empty action; the
  // fleet's health counters make it a failure.
  const HealthCounts health = CountHealth(fleet);
  r.failed += health.fallbacks_served;
  return r;
}

TimedJournalTap::TimedJournalTap(rs::wal::FleetJournal* journal,
                                 Tracer* tracer)
    : journal_(journal), tracer_(tracer), span_(tracer->Intern("wal.tap")) {}

void TimedJournalTap::OnRegister(const std::string& tenant,
                                 const rs::api::Scaler& scaler) {
  journal_->OnRegister(tenant, scaler);
}

void TimedJournalTap::OnRetire(const std::string& tenant) {
  journal_->OnRetire(tenant);
}

void TimedJournalTap::OnReplaceModel(const std::string& tenant,
                                     const rs::api::Scaler& incoming,
                                     bool at_next_plan) {
  journal_->OnReplaceModel(tenant, incoming, at_next_plan);
}

void TimedJournalTap::OnObserve(const std::string& tenant, double arrival_time,
                                const rs::api::Scaler::ObserveOutcome& outcome) {
  Scope span(tracer_, span_, tracer_->current_id());
  journal_->OnObserve(tenant, arrival_time, outcome);
}

void TimedJournalTap::OnPlan(const std::string& tenant, double now,
                             const rs::sim::ScalingAction& action,
                             const rs::api::TapClockMark& clock) {
  Scope span(tracer_, span_, tracer_->current_id());
  journal_->OnPlan(tenant, now, action, clock);
}

void TimedJournalTap::OnPlanAll(
    double now, const std::vector<rs::api::ScalerFleet::TenantPlan>& plans,
    const std::vector<rs::api::TapClockMark>& clocks) {
  Scope span(tracer_, span_, tracer_->current_id());
  journal_->OnPlanAll(now, plans, clocks);
}

HealthCounts CountHealth(const rs::api::ScalerFleet& fleet) {
  const rs::api::FleetSnapshot snap = fleet.Snapshot();
  HealthCounts c;
  c.plan_failures = snap.plan_failures;
  c.fallbacks_served = snap.fallbacks_served;
  c.rejected_observations = snap.rejected_observations;
  return c;
}

std::string SaveFleetBytes(const rs::api::ScalerFleet& fleet) {
  std::ostringstream out;
  const rs::Status st = fleet.SaveFleet(out);
  if (!st.ok()) return std::string();
  return out.str();
}

}  // namespace pb

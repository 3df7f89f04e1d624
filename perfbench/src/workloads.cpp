#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "harness.hpp"
#include "rs/common/radix_sort.hpp"
#include "rs/core/decision.hpp"
#include "rs/core/forecast.hpp"
#include "rs/linalg/banded_cholesky.hpp"
#include "rs/linalg/difference_ops.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/timeseries/drift.hpp"
#include "rs/train/training_session.hpp"

namespace pb {
namespace {

using namespace rs;
namespace fs = std::filesystem;

constexpr double kMs = 1e-6;  // ns -> ms
constexpr double kUs = 1e-3;  // ns -> us

double Ms(std::int64_t ns) { return static_cast<double>(ns) * kMs; }

/// The per-layer metrics of a traced run and their units. Every traced run
/// prints all of them; a layer the workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace_overhead", "ratio"},
      {"api.observe_self_ns", "ns"},
      {"api.planall_us", "us"},
      {"api.planall_p99_us", "us"},
      {"api.arrivals_per_wall_s", "1/s"},
      {"api.tenants_per_boundary", "count"},
      {"api.tenant_plan_us.hp", "us"},
      {"api.tenant_plan_us.rt", "us"},
      {"api.tenant_plan_us.cost", "us"},
      {"api.tenant_plan_us.bp", "us"},
      {"api.fanout_efficiency", "ratio"},
      {"api.fanout_efficiency_workers", "ratio"},
      {"api.build_s", "s"},
      {"api.freshness_refits", "count"},
      {"api.freshness_swaps", "count"},
      {"api.swap_boundary_ms", "ms"},
      {"api.staleness_s", "s"},
      {"api.plan_failures", "count"},
      {"api.fallbacks_served", "count"},
      {"api.rejected_observations", "count"},
      {"wal.tap_ns", "ns"},
      {"wal.observe_self_ns", "ns"},
      {"wal.appends", "count"},
      {"wal.bytes_per_event", "bytes"},
      {"wal.fsyncs", "count"},
      {"wal.segments", "count"},
      {"wal.checkpoint_ms", "ms"},
      {"wal.open_ms", "ms"},
      {"wal.recover_ms", "ms"},
      {"wal.tail_events", "count"},
      {"persist.save_fleet_ms", "ms"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.load_fleet_ms", "ms"},
      {"train.fit_ms", "ms"},
      {"train.refit_ms", "ms"},
      {"train.refit_iterations", "count"},
      {"core.fit_nhpp_ms", "ms"},
      {"core.admm_iterations", "count"},
      {"core.forecast_ms", "ms"},
      {"core.solve_us.hp", "us"},
      {"core.solve_us.rt", "us"},
      {"core.solve_us.cost", "us"},
      {"timeseries.aggregate_ms", "ms"},
      {"timeseries.detect_period_ms", "ms"},
      {"timeseries.drift_ns", "ns"},
      {"workload.inverse_batch_us", "us"},
      {"stats.exp_fill_ns", "ns"},
      {"common.radix_sort_us", "us"},
      {"linalg.banded_solve_us", "us"},
  };
  return kMetrics;
}

/// Times `fn` `reps` times and returns the per-call nanoseconds.
std::vector<double> TimeReps(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> ns;
  ns.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return ns;
}

workload::Trace TraceFromRates(const std::vector<double>& rates, double dt,
                               std::uint64_t seed,
                               const stats::DurationDistribution& processing) {
  auto intensity = workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(seed);
  auto trace = workload::MakeTraceFromIntensity(&rng, *intensity, processing);
  return std::move(trace).ValueOrDie();
}

/// Standard normal quantile, by bisection on erfc.
double NormalQuantile(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double SineRate(double t, double level, double period, double phase0) {
  const double phase = std::fmod(t, period) / period;
  return level * (1.0 + 0.6 * std::sin(2.0 * M_PI * (phase + phase0)));
}

api::StrategySpec Spec(const std::string& text) {
  return std::move(api::ParseStrategySpec(text)).ValueOrDie();
}

void AppendTrace(Stream* stream, const workload::Trace& trace,
                 std::uint32_t tenant) {
  for (const auto& q : trace.queries()) {
    if (q.arrival_time < stream->horizon) {
      stream->arrivals.push_back({q.arrival_time, tenant});
    }
  }
}

void SortStream(Stream* stream) {
  std::sort(stream->arrivals.begin(), stream->arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.t != b.t ? a.t < b.t : a.tenant < b.tenant;
            });
}

// Strategy seeds are capped at 2^53 by the registry, hence the `>> 11` on
// every seed handed to WithSeed.

Fleet SetupError(const std::string& what, const Status& status) {
  Fleet f;
  f.error = what + ": " + status.ToString();
  return f;
}

/// The training stage inputs of one representative tenant, replayed
/// stage by stage in the traced run.
struct ReplicaInput {
  const workload::Trace* train = nullptr;
  core::PipelineOptions options;
  core::TrainedPipeline trained;  ///< The tenant's own fit.
  stats::DurationDistribution pending =
      stats::DurationDistribution::Deterministic(13.0);
  std::size_t mc_samples = 300;
  std::vector<double> served;  ///< The tenant's serving arrivals.
};

/// QoS of restored tenant copies replayed over their own test traces,
/// pooled: hit rate over all their queries, cost over the reactive
/// backup_pool:pool_size=0 cost on the same traces.
struct QosInput {
  std::string state;  ///< Scaler::SaveState of a pre-serving copy.
  const workload::Trace* test = nullptr;
};

void EvaluateQos(const std::vector<QosInput>& inputs,
                 const sim::EngineOptions& engine, Report* report) {
  double hits = 0.0, queries = 0.0, cost = 0.0, reactive = 0.0;
  for (const auto& in : inputs) {
    std::istringstream state(in.state);
    auto copy = api::ScalerBuilder::RestoreState(state);
    report->Check(copy.ok(), "qos: restore tenant copy");
    if (!copy.ok()) continue;
    auto replay = copy->Replay(*in.test, engine);
    report->Check(replay.ok(), "qos: replay");
    if (!replay.ok()) continue;
    auto metrics = sim::ComputeMetrics(*replay);
    auto bp = api::MakeStrategy({.name = "backup_pool", .params = {{"pool_size", 0.0}}});
    auto base = api::Evaluate(*in.test, bp->get(), engine);
    report->Check(metrics.ok() && base.ok(), "qos: metrics");
    if (!metrics.ok() || !base.ok()) continue;
    const double n = static_cast<double>(metrics->num_queries);
    hits += metrics->hit_rate * n;
    queries += n;
    cost += metrics->total_cost;
    reactive += base->total_cost;
  }
  const double hit_rate = queries > 0.0 ? hits / queries : 0.0;
  const double cost_rel = reactive > 0.0 ? cost / reactive : 0.0;
  report->Check(queries > 0.0 && hit_rate > 0.0 && hit_rate <= 1.0,
                "qos: hit rate in (0, 1]");
  report->Check(cost_rel > 0.0 && std::isfinite(cost_rel), "qos: cost ratio");
  report->Set("hit_rate", hit_rate, "fraction", static_cast<std::size_t>(queries));
  report->Set("cost_rel", cost_rel, "ratio", inputs.size());
}

/// Snapshot/restore of a fleet with no journal: SaveFleet, LoadFleet, and
/// the restored fleet must encode to the same bytes.
void SnapshotRoundTrip(const api::ScalerFleet& fleet, bool traced, Report* report) {
  const std::size_t kReps = traced ? 9 : 1;
  std::string bytes;
  const auto save = TimeReps(kReps, [&] { bytes = SaveFleetBytes(fleet); });
  report->Check(!bytes.empty(), "persist: SaveFleet");
  std::string restored;
  std::vector<double> load;
  for (std::size_t k = 0; k < kReps; ++k) {
    std::istringstream in(bytes);
    api::FleetRestoreOptions options;
    options.worker_threads = Workers();
    const std::int64_t t0 = NowNs();
    auto loaded = api::ScalerFleet::LoadFleet(in, options);
    load.push_back(static_cast<double>(NowNs() - t0));
    if (k + 1 == kReps) restored = loaded.ok() ? SaveFleetBytes(*loaded) : std::string();
  }
  report->Check(restored == bytes,
                "persist: restored fleet encodes to the live fleet's bytes");
  if (traced) {
    report->Set("persist.save_fleet_ms", Median(save) * kMs, "ms", kReps);
    report->Set("persist.snapshot_bytes", static_cast<double>(bytes.size()),
                "bytes", 1);
    report->Set("persist.load_fleet_ms", Median(load) * kMs, "ms", kReps);
  }
}

/// A set-up is one attempted operation; a failed one ends the run.
bool CheckSetup(const Fleet& fleet, Report* report) {
  ++report->attempted;
  if (fleet.fleet != nullptr) return true;
  ++report->failed;
  report->Check(false, "set-up: " + fleet.error);
  return false;
}

class Workload {
 public:
  virtual ~Workload() = default;
  const Stream& stream() const { return stream_; }
  /// Builds a fresh, ready-to-serve fleet (timed as set-up).
  virtual Fleet Setup() = 0;
  /// A fresh fleet for a later serving pass, in the state Setup() left
  /// (not timed as set-up).
  virtual Fleet Again() { return Setup(); }
  /// Set-up repetitions a run needs at least (setup_s is their median).
  virtual std::size_t setup_reps() const = 0;
  /// Untimed work after the first set-up, before serving.
  virtual void AfterSetup(Fleet*) {}
  /// The traced pass's fleet is about to serve.
  virtual void BeginTrace(Fleet*, Tracer*) {}
  /// Boundary hook of one pass (null tracer: untraced pass).
  virtual BoundaryHook Hook(Fleet*, Tracer*) { return {}; }
  /// Checks and QoS on the first untraced pass, or on the traced pass.
  virtual void PostServe(Fleet*, const ServeResult&, Tracer*, Report*) {}
  /// Snapshots and recovers the served fleet, checking the round trip;
  /// the traced pass also reports the per-layer timings.
  virtual void Recover(Fleet* fleet, Tracer* tracer, Report* report) {
    SnapshotRoundTrip(*fleet->fleet, tracer != nullptr, report);
  }
  virtual void Teardown(Fleet*) {}
  /// Traced run only: a companion scenario for layers this workload's own
  /// traffic never enters (the journal on alibaba-paper), so every layer
  /// is measured on a gated workload.
  virtual void TraceCompanion(const RunConfig&, Report*) {}
  virtual const ReplicaInput& replica() const = 0;
  /// api.build_s samples (one per ScalerBuilder::Build).
  std::vector<double> build_ns;

 protected:
  Stream stream_;
  common::ThreadPool training_pool_{Workers()};
};

// ---------------------------------------------------------------------------
// azure-fleet / azure-fleet-wal
// ---------------------------------------------------------------------------

const char* const kArchetypeSpecs[] = {
    "robust_hp:target=0.9", "robust_rt:target=1.0", "robust_cost:target=2.0",
    "backup_pool:pool_size=2"};

class AzureFleet final : public Workload {
 public:
  static constexpr std::size_t kTenants = 100;
  static constexpr std::size_t kArchetypes = 4;
  static constexpr double kServeS = 4.0 * 3600.0;
  static constexpr double kBinS = 30.0;
  static constexpr double kTrainS = 3600.0;
  static constexpr double kTargetArrivals = 4e6;
  static constexpr double kPlanEvery = 5.0;  // = the planning interval
  static constexpr std::size_t kMc = 20;
  static constexpr double kCheckpointEvery = 600.0;
  static constexpr double kJournalPrefixS = 3.5 * kCheckpointEvery;

  AzureFleet(std::uint64_t seed, bool journal, std::string scratch)
      : seed_(seed), journal_(journal), scratch_(std::move(scratch)) {
    stream_.plan_every = kPlanEvery;
    stream_.horizon = kServeS;
    if (journal_) {
      // Cut half-way between checkpoints: recovery replays a 300 s tail.
      stream_.cut_every = kCheckpointEvery;
      stream_.cut_phase = kCheckpointEvery / 2.0;
    }
    for (std::size_t k = 0; k < kArchetypes; ++k) {
      std::vector<double> rates;
      for (double t = 0.5 * kBinS; t < kTrainS; t += kBinS) {
        rates.push_back(SineRate(t, 1.0, 600.0, static_cast<double>(k) / 7.3));
      }
      archetype_traces_.push_back(TraceFromRates(
          rates, kBinS, Mix(seed, 1, k), stats::DurationDistribution::Exponential(15.0)));
    }
    // Lognormal per-tenant base rates, a shared compressed diurnal cycle
    // with per-tenant phase, and 1-3 bursts of 4-10x for 30-90 s. The base
    // rates are the lognormal's 100 strata, dealt so every archetype gets
    // the same rate set and the seed only shuffles tenants within it: the
    // fleet's load and each archetype's share of it hold from seed to seed.
    std::vector<double> strata(kTenants);
    for (std::size_t j = 0; j < kTenants; ++j) {
      strata[j] = std::exp(NormalQuantile((static_cast<double>(j) + 0.5) / kTenants));
    }
    std::vector<std::size_t> rank(kTenants);
    std::iota(rank.begin(), rank.end(), 0);
    stats::Rng deal(Mix(seed, 5));
    for (std::size_t i = kTenants; i-- > kArchetypes;) {
      // Fisher-Yates over tenants of the same archetype (same i % 4).
      const std::size_t j = i % kArchetypes + kArchetypes * deal.NextBounded(i / kArchetypes + 1);
      std::swap(rank[i], rank[j]);
    }
    std::vector<std::vector<double>> rates(kTenants);
    const auto bins = static_cast<std::size_t>(kServeS / kBinS);
    double expected = 0.0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      stats::Rng rng(Mix(seed, 2, i));
      const double base = strata[rank[i]];
      const double phase = rng.NextDouble();
      struct Burst { double start, len, mult; };
      std::vector<Burst> bursts(1 + rng.NextBounded(3));
      for (auto& b : bursts) {
        b.start = rng.NextDouble() * (kServeS - 120.0);
        b.len = 30.0 + 60.0 * rng.NextDouble();
        b.mult = 4.0 + 6.0 * rng.NextDouble();
      }
      rates[i].resize(bins);
      for (std::size_t bin = 0; bin < bins; ++bin) {
        const double s = (static_cast<double>(bin) + 0.5) * kBinS;
        double r = base * (1.0 + 0.6 * std::sin(2.0 * M_PI * (s / kServeS + phase)));
        for (const auto& b : bursts) {
          if (s >= b.start && s < b.start + b.len) r *= b.mult;
        }
        rates[i][bin] = r;
        expected += r * kBinS;
      }
    }
    const double scale = kTargetArrivals / expected;
    stream_.arrivals.reserve(static_cast<std::size_t>(kTargetArrivals * 1.05));
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      for (double& r : rates[i]) r *= scale;
      workload::Trace trace = TraceFromRates(
          rates[i], kBinS, Mix(seed, 3, i), stats::DurationDistribution::Exponential(15.0));
      AppendTrace(&stream_, trace, i);
      if (i % kArchetypes == 0) {
        hp_traces_.push_back(std::move(trace));
      }
    }
    SortStream(&stream_);
  }

  std::size_t setup_reps() const override { return journal_ ? 5 : 9; }

  Fleet Setup() override {
    buffers_.clear();
    for (std::size_t k = 0; k < kArchetypes; ++k) {
      const std::int64_t t0 = NowNs();
      auto scaler = api::ScalerBuilder()
                        .WithTrace(archetype_traces_[k])
                        .WithBinWidth(kBinS)
                        .WithForecastHorizon(kServeS)
                        .WithStrategy(Spec(kArchetypeSpecs[k]))
                        .WithPlanningInterval(kPlanEvery)
                        .WithMcSamples(kMc)
                        .WithSeed(Mix(seed_, 4, k) >> 11)
                        .WithTrainingPool(&training_pool_)
                        .Build();
      build_ns.push_back(static_cast<double>(NowNs() - t0));
      if (!scaler.ok()) return SetupError(kArchetypeSpecs[k], scaler.status());
      std::ostringstream out;
      if (Status st = scaler->SaveState(out); !st.ok()) return SetupError("SaveState", st);
      buffers_.push_back(out.str());
      if (k == 0 && replica_.train == nullptr) {
        replica_.train = &archetype_traces_[0];
        replica_.options.dt = kBinS;
        replica_.options.forecast_horizon = kServeS;
        replica_.options.training_pool = &training_pool_;
        replica_.trained = scaler->trained();
        replica_.mc_samples = kMc;
        for (const Arrival& a : stream_.arrivals) {
          if (a.tenant == 0) replica_.served.push_back(a.t);
        }
      }
    }
    Fleet f;
    f.fleet = std::make_unique<api::ScalerFleet>(Workers());
    for (std::size_t i = 0; i < kTenants; ++i) {
      std::istringstream in(buffers_[i % kArchetypes]);
      auto scaler = api::ScalerBuilder::RestoreState(in);
      if (!scaler.ok()) return SetupError("RestoreState", scaler.status());
      f.names.push_back("fn-" + std::to_string(i));
      f.kinds.push_back(KindOf(kArchetypeSpecs[i % kArchetypes]));
      if (Status st = f.fleet->Register(f.names.back(), std::move(scaler).ValueOrDie());
          !st.ok()) {
        return SetupError("Register", st);
      }
    }
    if (journal_) {
      dir_ = scratch_ + "/wal-" + std::to_string(passes_++);
      fs::remove_all(dir_);
      journal_impl_ = std::make_unique<wal::FleetJournal>();
      if (Status st = journal_impl_->Open(dir_, Policy()); !st.ok()) {
        return SetupError("journal Open", st);
      }
      if (Status st = wal::EnableJournal(f.fleet.get(), journal_impl_.get()); !st.ok()) {
        return SetupError("EnableJournal", st);
      }
    }
    return f;
  }

  void BeginTrace(Fleet* f, Tracer* tracer) override {
    if (!journal_) return;
    tap_ = std::make_unique<TimedJournalTap>(journal_impl_.get(), tracer);
    f->fleet->DetachTap();
    f->fleet->AttachTap(tap_.get());
  }

  BoundaryHook Hook(Fleet*, Tracer* tracer) override {
    if (!journal_) return {};
    next_checkpoint_ = kCheckpointEvery;
    journal_bytes_ = 0;
    bytes_after_checkpoint_ = JournalBytes();
    return [this, tracer](double t, std::size_t) -> Clocks {
      Clocks excluded;
      if (t < next_checkpoint_) return excluded;
      next_checkpoint_ += kCheckpointEvery;
      if (tracer != nullptr) {
        const Clocks t0 = Clocks::Now();
        journal_bytes_ += JournalBytes() - bytes_after_checkpoint_;
        excluded += Clocks::Now() - t0;
      }
      const std::int64_t t0 = NowNs();
      Status st = [&] {
        Scope span(tracer, tracer ? tracer->Intern("wal.Checkpoint") : 0, 0);
        return journal_impl_->Checkpoint();
      }();
      checkpoint_ns_.push_back(static_cast<double>(NowNs() - t0));
      if (!st.ok()) ++checkpoint_failures_;
      if (tracer != nullptr) {
        const Clocks t1 = Clocks::Now();
        bytes_after_checkpoint_ = JournalBytes();
        excluded += Clocks::Now() - t1;
      }
      return excluded;
    };
  }

  void PostServe(Fleet*, const ServeResult&, Tracer* tracer, Report* report) override {
    if (tracer == nullptr) {
      std::vector<QosInput> qos;
      for (const auto& trace : hp_traces_) qos.push_back({buffers_[0], &trace});
      EvaluateQos(qos, sim::EngineOptions{}, report);
    }
    if (journal_) {
      report->Check(checkpoint_failures_ == 0, "wal: every checkpoint succeeded");
      report->Check(journal_impl_->status().ok(), "wal: journal healthy");
    }
  }

  // With a journal, recovery is Open + Recover of the directory the pass
  // left behind, by a fresh FleetJournal.
  void Recover(Fleet* f, Tracer* tracer, Report* report) override {
    if (!journal_) {
      Workload::Recover(f, tracer, report);
      return;
    }
    const std::string live = SaveFleetBytes(*f->fleet);
    const std::uint64_t appends = journal_impl_->last_lsn();
    const std::uint64_t fsyncs = journal_impl_->fsyncs();
    journal_bytes_ += JournalBytes() - bytes_after_checkpoint_;
    journal_impl_->Detach();
    journal_impl_.reset();
    wal::FleetJournal reopened;
    const std::int64_t t0 = NowNs();
    const Status opened = reopened.Open(dir_, Policy());
    const std::int64_t t1 = NowNs();
    wal::RecoverOptions options;
    options.worker_threads = Workers();
    auto recovered = reopened.Recover(options);
    const std::int64_t t2 = NowNs();
    report->Check(opened.ok() && recovered.ok(), "wal: open + recover");
    report->Check(recovered.ok() && SaveFleetBytes(*recovered) == live,
                  "wal: recovered fleet encodes to the live fleet's bytes");
    if (tracer == nullptr) return;
    const wal::OpenReport& opened_report = reopened.open_report();
    const std::int64_t open_ns = t1 - t0, recover_ns = t2 - t1;
    report->Set("wal.tap_ns", Median(tracer->TotalNs("wal.tap")), "ns",
                tracer->TotalNs("wal.tap").size());
    // The Observe it follows, tap excluded: the journal tax's other half.
    report->Set("wal.observe_self_ns", Median(tracer->SelfNs("api.Observe")), "ns",
                tracer->SelfNs("api.Observe").size());
    report->Set("wal.appends", static_cast<double>(appends), "count", 1);
    report->Set("wal.bytes_per_event",
                appends > 0 ? static_cast<double>(journal_bytes_) / static_cast<double>(appends) : 0.0,
                "bytes", appends);
    report->Set("wal.fsyncs", static_cast<double>(fsyncs), "count", 1);
    report->Set("wal.segments", static_cast<double>(opened_report.segments), "count", 1);
    report->Set("wal.checkpoint_ms", Median(checkpoint_ns_) * kMs, "ms",
                checkpoint_ns_.size());
    report->Set("wal.open_ms", Ms(open_ns), "ms", 1);
    report->Set("wal.recover_ms", Ms(recover_ns), "ms", 1);
    report->Set("wal.tail_events", static_cast<double>(opened_report.tail_events), "count", 1);
  }

  void Teardown(Fleet* f) override {
    if (!journal_) return;
    if (journal_impl_ != nullptr) journal_impl_->Detach();
    f->fleet.reset();
    journal_impl_.reset();
    tap_.reset();
    fs::remove_all(dir_);
  }

  const ReplicaInput& replica() const override { return replica_; }

 private:
  static wal::JournalPolicy Policy() {
    wal::JournalPolicy policy;
    policy.fsync = wal::FsyncPolicy::kNone;
    return policy;
  }

  std::uint64_t JournalBytes() const {
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() == ".rswal") bytes += entry.file_size(ec);
    }
    return bytes;
  }

  std::uint64_t seed_;
  bool journal_;
  std::string scratch_;
  std::vector<workload::Trace> archetype_traces_;
  std::vector<workload::Trace> hp_traces_;
  std::vector<std::string> buffers_;
  ReplicaInput replica_;
  // Journal state of the current pass.
  std::size_t passes_ = 0;
  std::string dir_;
  std::unique_ptr<wal::FleetJournal> journal_impl_;
  std::unique_ptr<TimedJournalTap> tap_;
  double next_checkpoint_ = kCheckpointEvery;
  std::vector<double> checkpoint_ns_;
  std::size_t checkpoint_failures_ = 0;
  std::uint64_t journal_bytes_ = 0;
  std::uint64_t bytes_after_checkpoint_ = 0;
};

// ---------------------------------------------------------------------------
// alibaba-paper
// ---------------------------------------------------------------------------

class AlibabaPaper final : public Workload {
 public:
  static constexpr double kDt = 300.0;
  static constexpr double kTrainS = 4.0 * 86400.0;
  static constexpr double kPlanEvery = 5.0;
  static constexpr std::size_t kMc = 1000;

  explicit AlibabaPaper(std::uint64_t seed) : seed_(seed) {
    stream_.plan_every = kPlanEvery;
    for (std::uint32_t k = 0; k < kSpecs.size(); ++k) {
      workload::SyntheticTraceOptions options;
      options.seed = Mix(seed, 10, k);
      auto synth = workload::MakeAlibabaLikeTrace(options);
      auto split = synth->trace.SplitAt(kTrainS);
      train_.push_back(std::move(split.first));
      test_.push_back(std::move(split.second));
      pending_ = synth->pending;
    }
    stream_.horizon = test_[0].horizon();
    for (std::uint32_t k = 0; k < kSpecs.size(); ++k) AppendTrace(&stream_, test_[k], k);
    SortStream(&stream_);
  }

  std::size_t setup_reps() const override { return 2; }

  // The three tenants train concurrently on the training pool (each fit
  // also fans its own loops out over it).
  Fleet Setup() override {
    std::vector<std::optional<Result<api::Scaler>>> built(kSpecs.size());
    std::vector<double> ns(kSpecs.size());
    common::ParallelFor(&training_pool_, kSpecs.size(), [&](std::size_t k) {
      const std::int64_t t0 = NowNs();
      built[k] = api::ScalerBuilder()
                     .WithTrace(train_[k])
                     .WithBinWidth(kDt)
                     .WithAggregateFactor(1)
                     .WithForecastHorizon(test_[k].horizon())
                     .WithStrategy(Spec(kSpecs[k]))
                     .WithPending(pending_)
                     .WithPlanningInterval(kPlanEvery)
                     .WithMcSamples(kMc)
                     .WithSeed(Mix(seed_, 11, k) >> 11)
                     .WithTrainingPool(&training_pool_)
                     .Build();
      ns[k] = static_cast<double>(NowNs() - t0);
    });
    build_ns.insert(build_ns.end(), ns.begin(), ns.end());
    Fleet f;
    f.fleet = std::make_unique<api::ScalerFleet>(Workers());
    for (std::size_t k = 0; k < kSpecs.size(); ++k) {
      Result<api::Scaler>& scaler = *built[k];
      if (!scaler.ok()) return SetupError("Build", scaler.status());
      if (k == 0 && replica_.train == nullptr) {
        replica_.train = &train_[0];
        replica_.options.dt = kDt;
        replica_.options.forecast_horizon = test_[0].horizon();
        replica_.options.training_pool = &training_pool_;
        replica_.trained = scaler->trained();
        replica_.pending = pending_;
        replica_.mc_samples = kMc;
        replica_.served = test_[0].ArrivalTimes();
      }
      f.names.push_back(KindName(KindOf(kSpecs[k])));
      f.kinds.push_back(KindOf(kSpecs[k]));
      if (Status st = f.fleet->Register(f.names.back(), std::move(scaler).ValueOrDie());
          !st.ok()) {
        return SetupError("Register", st);
      }
    }
    if (Status st = f.fleet->ConfigureServingAll(Engine()); !st.ok()) {
      return SetupError("ConfigureServingAll", st);
    }
    return f;
  }

  // Later passes restore the trained fleet instead of training it again.
  Fleet Again() override {
    std::istringstream in(fleet_state_);
    api::FleetRestoreOptions options;
    options.worker_threads = Workers();
    auto loaded = api::ScalerFleet::LoadFleet(in, options);
    if (!loaded.ok()) return SetupError("LoadFleet", loaded.status());
    Fleet f;
    f.fleet = std::make_unique<api::ScalerFleet>(std::move(loaded).ValueOrDie());
    if (Status st = f.fleet->ConfigureServingAll(Engine()); !st.ok()) {
      return SetupError("ConfigureServingAll", st);
    }
    for (const auto& spec : kSpecs) {
      f.names.push_back(KindName(KindOf(spec)));
      f.kinds.push_back(KindOf(spec));
    }
    return f;
  }

  void AfterSetup(Fleet* f) override {
    std::ostringstream out;
    if (f->fleet->Find("hp")->SaveState(out).ok()) hp_state_ = out.str();
    fleet_state_ = SaveFleetBytes(*f->fleet);
  }

  void PostServe(Fleet*, const ServeResult&, Tracer* tracer, Report* report) override {
    if (tracer == nullptr) EvaluateQos({{hp_state_, &test_[0]}}, Engine(), report);
  }

  void TraceCompanion(const RunConfig& config, Report* report) override;

  const ReplicaInput& replica() const override { return replica_; }

 private:
  static inline const std::vector<std::string> kSpecs = {
      "robust_hp:target=0.9", "robust_rt:target=1.0", "robust_cost:target=2.0"};

  sim::EngineOptions Engine() const {
    sim::EngineOptions engine;
    engine.pending = pending_;
    return engine;
  }

  std::uint64_t seed_;
  std::vector<workload::Trace> train_;
  std::vector<workload::Trace> test_;
  stats::DurationDistribution pending_ = stats::DurationDistribution::Deterministic(13.0);
  std::string hp_state_;
  std::string fleet_state_;
  ReplicaInput replica_;
};

// ---------------------------------------------------------------------------
// regime-shift
// ---------------------------------------------------------------------------

class RegimeShift final : public Workload {
 public:
  static constexpr std::size_t kTenants = 16;
  static constexpr double kPeriodS = 600.0;
  static constexpr double kDt = 30.0;
  static constexpr double kPlanEvery = 5.0;  // = the planning interval
  static constexpr double kTrainS = 6.0 * kPeriodS;
  // Four cycles, shifting at mid-serve: the periodicity check needs a full
  // post-shift period before it can latch.
  static constexpr double kServeS = 4.0 * kPeriodS;
  static constexpr double kShiftS = kServeS / 2.0;
  static constexpr std::size_t kMc = 60;
  static constexpr double kMinRetrainInterval = 120.0;
  static constexpr double kRefitReplicaS = 120.0;  // Served past the shift.
  static constexpr std::size_t kTruePeriodBins = 20;  // kPeriodS / kDt

  explicit RegimeShift(std::uint64_t seed) : seed_(seed) {
    stream_.plan_every = kPlanEvery;
    stream_.horizon = kServeS;
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      const double phase0 = static_cast<double>(i) / 7.3;
      std::vector<double> train_rates, test_rates;
      for (double t = 0.5 * kDt; t < kTrainS; t += kDt) {
        train_rates.push_back(SineRate(t, 1.0, kPeriodS, phase0));
      }
      // Even tenants shift at mid-serve: alternately to 4x the level and
      // to a 3x shorter period. Odd tenants are the no-drift control.
      for (double t = 0.5 * kDt; t < kServeS; t += kDt) {
        if (!Shifted(i) || t < kShiftS) {
          test_rates.push_back(SineRate(t, 1.0, kPeriodS, phase0));
        } else if ((i / 2) % 2 == 0) {
          test_rates.push_back(SineRate(t, 4.0, kPeriodS, phase0));
        } else {
          test_rates.push_back(SineRate(t, 1.0, kPeriodS / 3.0, phase0));
        }
      }
      const auto processing = stats::DurationDistribution::Exponential(15.0);
      train_.push_back(TraceFromRates(train_rates, kDt, Mix(seed, 20, i), processing));
      test_.push_back(TraceFromRates(test_rates, kDt, Mix(seed, 21, i), processing));
      AppendTrace(&stream_, test_.back(), i);
    }
    SortStream(&stream_);
  }

  static bool Shifted(std::size_t i) { return i % 2 == 0; }

  std::size_t setup_reps() const override { return 9; }

  Fleet Setup() override {
    Fleet f;
    f.fleet = std::make_unique<api::ScalerFleet>(Workers());
    for (std::size_t i = 0; i < kTenants; ++i) {
      const std::string spec = kArchetypeSpecs[(i / 2) % std::size(kArchetypeSpecs)];
      const std::int64_t t0 = NowNs();
      auto scaler = api::ScalerBuilder()
                        .WithTrace(train_[i])
                        .WithBinWidth(kDt)
                        .WithForecastHorizon(kServeS)
                        .WithStrategy(Spec(spec))
                        .WithPlanningInterval(kPlanEvery)
                        .WithMcSamples(kMc)
                        .WithSeed(Mix(seed_, 22, i) >> 11)
                        .WithTrainingPool(&training_pool_)
                        .Build();
      build_ns.push_back(static_cast<double>(NowNs() - t0));
      if (!scaler.ok()) return SetupError("Build", scaler.status());
      if (i == 0 && replica_.train == nullptr) {
        replica_.train = &train_[0];
        replica_.options.dt = kDt;
        replica_.options.forecast_horizon = kServeS;
        replica_.options.training_pool = &training_pool_;
        replica_.trained = scaler->trained();
        replica_.mc_samples = kMc;
        replica_.served = test_[0].ArrivalTimes();
      }
      f.names.push_back("tenant-" + std::to_string(i));
      f.kinds.push_back(KindOf(spec));
      if (Status st = f.fleet->Register(f.names.back(), std::move(scaler).ValueOrDie());
          !st.ok()) {
        return SetupError("Register", st);
      }
    }
    api::FreshnessPolicy policy;
    policy.pipeline.dt = kDt;
    policy.pipeline.forecast_horizon = kServeS;
    policy.min_retrain_interval = kMinRetrainInterval;
    policy.retrain_workers = 0;  // Inline, deterministic refits.
    if (Status st = f.fleet->EnableFreshness(policy); !st.ok()) {
      return SetupError("EnableFreshness", st);
    }
    return f;
  }

  void AfterSetup(Fleet* f) override {
    trained_period_.clear();
    for (const auto& name : f->names) {
      trained_period_.push_back(f->fleet->Find(name)->trained().period.period);
    }
    // QoS is scored on the unshifted (no-drift control) robust_hp:target=0.9
    // tenants, pooled: the strategy whose objective is the hit rate, as on
    // the other workloads.
    control_states_.clear();
    for (std::size_t i = 0; i < kTenants; ++i) {
      if (Shifted(i) || f->kinds[i] != Kind::kHp) continue;
      std::ostringstream out;
      if (f->fleet->Find(f->names[i])->SaveState(out).ok()) {
        control_states_.push_back({out.str(), &test_[i]});
      }
    }
  }

  BoundaryHook Hook(Fleet* f, Tracer*) override {
    poll_ = Poll{};
    poll_.first_swap.assign(kTenants, -1.0);
    poll_.drift_events.assign(kTenants, 0);
    poll_.swaps.assign(kTenants, 0);
    return [this, f](double, std::size_t b) -> Clocks {
      const Clocks t0 = Clocks::Now();
      bool refit = false;
      for (std::size_t i = 0; i < kTenants; ++i) {
        auto fresh = f->fleet->Freshness(f->names[i]);
        if (!fresh.ok()) continue;
        if (fresh->drift_events > poll_.drift_events[i]) refit = true;
        if (fresh->swaps_applied > poll_.swaps[i] && poll_.first_swap[i] < 0.0 &&
            fresh->last_swap_time >= kShiftS) {
          poll_.first_swap[i] = fresh->last_swap_time;
        }
        poll_.drift_events[i] = fresh->drift_events;
        poll_.swaps[i] = fresh->swaps_applied;
      }
      if (refit) poll_.refit_boundaries.push_back(b);
      return Clocks::Now() - t0;
    };
  }

  void PostServe(Fleet* f, const ServeResult& served, Tracer* tracer,
                 Report* report) override {
    if (served.completed) {
      for (std::size_t i = 0; i < kTenants; ++i) {
        if (Shifted(i)) {
          report->Check(poll_.first_swap[i] >= 0.0,
                        "freshness: shifted " + f->names[i] + " swapped a refit model in");
        } else if (trained_period_[i] == kTruePeriodBins) {
          // A control whose period came out a bin off slides out of phase
          // and is rightly refit; one with the true period must stay quiet.
          report->Check(poll_.drift_events[i] == 0,
                        "freshness: unshifted " + f->names[i] + " never latched");
        }
      }
    }
    if (tracer == nullptr) {
      EvaluateQos(control_states_, sim::EngineOptions{}, report);
      return;
    }
    std::vector<double> boundary_ns;
    for (std::size_t b : poll_.refit_boundaries) boundary_ns.push_back(served.plan_ns[b]);
    std::vector<double> staleness;
    std::uint64_t refits = 0, swaps = 0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      refits += poll_.drift_events[i];
      swaps += poll_.swaps[i];
      if (Shifted(i) && poll_.first_swap[i] >= 0.0) {
        staleness.push_back(poll_.first_swap[i] - kShiftS);
      }
    }
    report->Set("api.freshness_refits", static_cast<double>(refits), "count", 1);
    report->Set("api.freshness_swaps", static_cast<double>(swaps), "count", 1);
    report->Set("api.swap_boundary_ms", Median(boundary_ns) * kMs, "ms", boundary_ns.size());
    report->Set("api.staleness_s",
                staleness.empty() ? 0.0
                                  : std::accumulate(staleness.begin(), staleness.end(), 0.0) /
                                        static_cast<double>(staleness.size()),
                "s", staleness.size());
    // The inline refit of a shifted tenant, replayed on its own session:
    // trained window plus the served arrivals up to one refit interval
    // past the shift.
    core::PipelineOptions options = replica_.options;
    auto session = train::TrainingSession::FromTrace(train_[0], options);
    if (session.ok() && session->Fit().ok()) {
      std::vector<double> times;
      const double up_to = kShiftS + kRefitReplicaS;
      for (const auto& q : test_[0].queries()) {
        if (q.arrival_time < up_to) times.push_back(q.arrival_time + train_[0].horizon());
      }
      (void)session->AppendArrivals(times, up_to + train_[0].horizon());
      const std::int64_t t0 = NowNs();
      const bool ok = session->Refit().ok();
      report->Check(ok, "train: refit replica");
      report->Set("train.refit_ms", Ms(NowNs() - t0), "ms", 1);
      report->Set("train.refit_iterations",
                  static_cast<double>(session->last_iterations()), "count", 1);
    }
  }

  const ReplicaInput& replica() const override { return replica_; }

 private:
  struct Poll {
    std::vector<double> first_swap;  ///< First swap after the shift, or -1.
    std::vector<std::size_t> drift_events;
    std::vector<std::size_t> swaps;
    std::vector<std::size_t> refit_boundaries;
  };

  std::uint64_t seed_;
  std::vector<workload::Trace> train_;
  std::vector<workload::Trace> test_;
  std::vector<QosInput> control_states_;
  std::vector<std::size_t> trained_period_;  ///< Per tenant, as trained.
  Poll poll_;
  ReplicaInput replica_;
};

// alibaba-paper's traced run also serves a prefix of azure-fleet-wal's
// traffic, traced, with the journal attached (three checkpoints, then a
// 300 s tail): the wal layer's metrics (wal.*) and the journal recovery
// check on a gated workload.
void AlibabaPaper::TraceCompanion(const RunConfig& config, Report* report) {
  AzureFleet journaled(config.seed, true, config.scratch);
  Fleet f = journaled.Setup();
  if (CheckSetup(f, report)) {
    Tracer tracer;
    journaled.BeginTrace(&f, &tracer);
    ServeOptions options;
    options.tracer = &tracer;
    options.max_boundaries =
        static_cast<std::size_t>(AzureFleet::kJournalPrefixS / AzureFleet::kPlanEvery);
    options.after_boundary = journaled.Hook(&f, &tracer);
    const ServeResult served = Serve(&f, journaled.stream(), std::move(options));
    report->attempted += served.attempted;
    report->failed += served.failed;
    journaled.PostServe(&f, served, &tracer, report);
    journaled.Recover(&f, &tracer, report);
  }
  journaled.Teardown(&f);
}

// ---------------------------------------------------------------------------
// Stage replicas: one training pass and one Monte Carlo plan round, stage by
// stage, on the representative tenant's inputs.
// ---------------------------------------------------------------------------

void StageReplicas(const ReplicaInput& in, Report* report) {
  if (in.train == nullptr) return;
  const core::PipelineOptions& options = in.options;
  const double dt = options.dt;
  const auto reps_for = [](double first_ns) {
    return first_ns > 2e8 ? std::size_t{1} : std::size_t{5};
  };

  // timeseries: binning and period detection.
  const std::vector<double> times = in.train->ArrivalTimes();
  ts::CountSeries counts;
  const auto aggregate = TimeReps(5, [&] {
    counts = *ts::AggregateEvents(times, dt, in.train->horizon());
  });
  report->Set("timeseries.aggregate_ms", Median(aggregate) * kMs, "ms", aggregate.size());
  ts::DetectedPeriod period;
  ts::PeriodicityOptions periodicity = options.periodicity;
  periodicity.pool = options.training_pool;
  const auto detect = TimeReps(5, [&] { period = *ts::DetectPeriod(counts, periodicity); });
  report->Set("timeseries.detect_period_ms", Median(detect) * kMs, "ms", detect.size());

  // core: the ADMM fit and the forecast.
  core::NhppConfig config;
  config.dt = dt;
  config.beta1 = options.beta1;
  config.beta2 = options.beta2;
  config.period = period.period;
  core::AdmmOptions admm = options.admm;
  admm.pool = options.training_pool;
  core::AdmmInfo info;
  core::NhppModel model;
  std::vector<double> fit = TimeReps(1, [&] {
    model = *core::FitNhpp(counts.counts, config, admm, &info);
  });
  if (reps_for(fit[0]) > 1) {
    const auto more = TimeReps(4, [&] { model = *core::FitNhpp(counts.counts, config, admm, &info); });
    fit.insert(fit.end(), more.begin(), more.end());
  }
  report->Set("core.fit_nhpp_ms", Median(fit) * kMs, "ms", fit.size());
  report->Set("core.admm_iterations", static_cast<double>(info.iterations), "count", 1);
  const auto horizon_bins = static_cast<std::size_t>(std::ceil(options.forecast_horizon / dt));
  const auto forecast_ns = TimeReps(5, [&] {
    (void)core::ForecastIntensity(model, horizon_bins, options.forecast);
  });
  report->Set("core.forecast_ms", Median(forecast_ns) * kMs, "ms", forecast_ns.size());

  // train: the whole fit through a TrainingSession.
  std::vector<double> session_ns = TimeReps(1, [&] {
    auto session = train::TrainingSession::FromTrace(*in.train, options);
    if (session.ok()) (void)session->Fit();
  });
  if (reps_for(session_ns[0]) > 1) {
    const auto more = TimeReps(4, [&] {
      auto session = train::TrainingSession::FromTrace(*in.train, options);
      if (session.ok()) (void)session->Fit();
    });
    session_ns.insert(session_ns.end(), more.begin(), more.end());
  }
  report->Set("train.fit_ms", Median(session_ns) * kMs, "ms", session_ns.size());

  // linalg: one r-subproblem factor + solve at the fit's T and bandwidth.
  const std::vector<double>& r = model.log_intensity();
  const std::size_t t_bins = r.size();
  const std::size_t bandwidth = std::max<std::size_t>(2, period.period);
  linalg::Vec rhs(t_bins, 1.0), x;
  const auto banded = TimeReps(5, [&] {
    linalg::SymmetricBandedMatrix a(t_bins, bandwidth);
    linalg::AddGramD2(admm.rho, &a);
    if (period.period > 0) linalg::AddGramDL(admm.rho, period.period, &a);
    linalg::Vec diag(t_bins);
    for (std::size_t i = 0; i < t_bins; ++i) diag[i] = dt * std::exp(r[i]);
    a.AddDiagonal(diag);
    (void)linalg::BandedCholesky::FactorAndSolve(a, rhs, &x);
  });
  report->Set("linalg.banded_solve_us", Median(banded) * kUs, "us", banded.size());

  // One Monte Carlo plan round at the workload's R, at points spread over
  // the forecast horizon: exponential draws, batched intensity inversion,
  // radix sort, and the three decision rules.
  const workload::PiecewiseConstantIntensity& forecast = in.trained.forecast;
  const std::size_t mc = in.mc_samples;
  constexpr std::size_t kRounds = 400;
  stats::Rng rng(0x5eedull);
  std::vector<double> draws(mc), targets(mc), inverse(mc);
  std::vector<std::uint32_t> order;
  common::RadixSortScratch radix;
  core::McSamples samples;
  samples.tau.resize(mc);
  std::vector<double> fill_ns, inverse_ns, sort_ns, hp_ns, rt_ns, cost_ns;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const double now = forecast.horizon() * static_cast<double>(k) / kRounds;
    const double base = forecast.Cumulative(now);
    std::int64_t t0 = NowNs();
    stats::SampleExponentialZigguratFill(&rng, 1.0, draws.data(), mc);
    fill_ns.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(mc));
    for (std::size_t i = 0; i < mc; ++i) targets[i] = base + draws[i];
    t0 = NowNs();
    const Status inv = forecast.InverseCumulativeBatch(targets, &inverse, &order);
    inverse_ns.push_back(static_cast<double>(NowNs() - t0));
    if (!inv.ok()) continue;
    std::vector<double> sorted = inverse;
    t0 = NowNs();
    common::RadixSortAscending(sorted.data(), mc, &radix);
    sort_ns.push_back(static_cast<double>(NowNs() - t0));
    samples.xi.resize(mc);
    for (std::size_t i = 0; i < mc; ++i) {
      samples.xi[i] = inverse[i] - now;
      samples.tau[i] = in.pending.Sample(&rng);
    }
    t0 = NowNs();
    (void)core::SolveHpConstrained(samples, 0.1);
    hp_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    (void)core::SolveRtConstrained(samples, 1.0);
    rt_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    (void)core::SolveCostConstrained(samples, 2.0);
    cost_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  report->Set("stats.exp_fill_ns", Median(fill_ns), "ns", fill_ns.size());
  report->Set("workload.inverse_batch_us", Median(inverse_ns) * kUs, "us", inverse_ns.size());
  report->Set("common.radix_sort_us", Median(sort_ns) * kUs, "us", sort_ns.size());
  report->Set("core.solve_us.hp", Median(hp_ns) * kUs, "us", hp_ns.size());
  report->Set("core.solve_us.rt", Median(rt_ns) * kUs, "us", rt_ns.size());
  report->Set("core.solve_us.cost", Median(cost_ns) * kUs, "us", cost_ns.size());

  // timeseries: one drift-detector update per served arrival.
  std::vector<double> expected = forecast.rates();
  auto detector = ts::DriftDetector::Make(ts::DriftDetectorOptions{}, expected,
                                          forecast.dt(), period.period, 0.0);
  if (detector.ok() && !in.served.empty()) {
    const std::int64_t t0 = NowNs();
    for (const double t : in.served) detector->Observe(t);
    report->Set("timeseries.drift_ns",
                static_cast<double>(NowNs() - t0) / static_cast<double>(in.served.size()),
                "ns", in.served.size());
  }
}

/// A "<key>: <n> kB" field of /proc/self/status, in MB (0 when absent).
double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
  }
  return 0.0;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "azure-fleet") {
    return std::make_unique<AzureFleet>(config.seed, false, config.scratch);
  }
  if (config.workload == "azure-fleet-wal") {
    return std::make_unique<AzureFleet>(config.seed, true, config.scratch);
  }
  if (config.workload == "alibaba-paper") return std::make_unique<AlibabaPaper>(config.seed);
  if (config.workload == "regime-shift") return std::make_unique<RegimeShift>(config.seed);
  return nullptr;
}

/// Untraced run: serving passes until `seconds` of serving have passed,
/// each on a fresh fleet; the end-to-end metrics pool every pass. The first
/// `setup_reps` fleets come from timed set-ups, later ones from Again().
/// Set-up, checks and recovery do not count against the serving time.
///
/// Throughput and plan times are read on the process's CPU clock, so time
/// the host takes a vCPU away, which on a shared machine comes in spells
/// that outlast a run, does not count; wall-clock figures are per-layer
/// metrics of the traced run. Observe latencies are wall time (one clock
/// read per call; a CPU clock read is a system call).
void RunUntraced(Workload* w, const RunConfig& config, Report* report) {
  // The benchmark's own memory, inputs and the per-arrival sample buffer,
  // is resident before set-up; peak_rss_mb is what serving adds to it.
  std::vector<float> observe_buffer(w->stream().arrivals.size(), 0.0f);
  const double baseline_mb = ProcStatusMb("VmRSS");
  std::vector<double> setup_ns;
  const auto next_fleet = [&](std::size_t pass) {
    const bool setup = pass < w->setup_reps();
    const std::int64_t t0 = NowNs();
    Fleet fleet = setup ? w->Setup() : w->Again();
    const std::int64_t ns = NowNs() - t0;
    if (setup) setup_ns.push_back(static_cast<double>(ns));
    return std::make_pair(std::move(fleet), ns);
  };
  std::vector<float> observe_ns;
  std::vector<double> plan_us, decide_us;
  std::vector<double> pass_rates;  // Arrivals per CPU second, complete passes.
  double serve_cpu_s = 0.0;
  std::size_t arrivals = 0;
  std::vector<std::uint64_t> first_digest;
  std::int64_t deadline = NowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
  for (std::size_t pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    auto [fleet, setup_time] = next_fleet(pass);
    if (!CheckSetup(fleet, report)) return;
    std::int64_t untimed = setup_time;
    std::int64_t t0 = NowNs();
    if (pass == 0) w->AfterSetup(&fleet);
    ServeOptions options;
    options.deadline_ns = deadline + untimed + (NowNs() - t0);
    options.after_boundary = w->Hook(&fleet, nullptr);
    options.observe_buffer = std::move(observe_buffer);
    untimed += NowNs() - t0;
    ServeResult served = Serve(&fleet, w->stream(), std::move(options));
    t0 = NowNs();
    if (pass == 0) {
      w->PostServe(&fleet, served, nullptr, report);
      w->Recover(&fleet, nullptr, report);
      // Read before the benchmark pools the samples of later passes.
      report->Set("peak_rss_mb", ProcStatusMb("VmHWM") - baseline_mb, "MB", 1);
    }
    w->Teardown(&fleet);
    observe_ns.insert(observe_ns.end(), served.observe_ns.begin(), served.observe_ns.end());
    observe_buffer = std::move(served.observe_ns);
    for (std::size_t b = 0; b < served.boundaries; ++b) {
      plan_us.push_back(served.plan_cpu_ns[b] * kUs);
      if (served.decided[b]) decide_us.push_back(served.plan_cpu_ns[b] * kUs);
    }
    if (served.completed && served.serve_cpu_s > 0.0) {
      pass_rates.push_back(static_cast<double>(served.arrivals) / served.serve_cpu_s);
    }
    serve_cpu_s += served.serve_cpu_s;
    arrivals += served.arrivals;
    report->attempted += served.attempted;
    report->failed += served.failed;
    if (served.completed) {
      if (first_digest.empty()) {
        first_digest = served.digest;
      } else {
        report->Check(served.digest == first_digest,
                      "determinism: every complete pass emits the same actions");
      }
    }
    deadline += untimed + (NowNs() - t0);
  }
  for (std::size_t pass = setup_ns.size(); pass < w->setup_reps(); ++pass) {
    auto [fleet, setup_time] = next_fleet(pass);
    if (!CheckSetup(fleet, report)) return;
    w->Teardown(&fleet);
  }
  report->Set("setup_s", Median(setup_ns) * 1e-9, "s", setup_ns.size());
  report->SetTail("observe_p50_ns", ChunkedTail(observe_ns, 0.5), "ns");
  report->SetTail("observe_p99_ns", ChunkedTail(observe_ns, 0.99), "ns");
  report->SetTail("plan_p50_us", ChunkedTail(plan_us, 0.5), "us");
  report->SetTail("decide_p50_us", ChunkedTail(decide_us, 0.5), "us");
  report->Check(!decide_us.empty(), "some boundary returned a non-empty action");
  // The median complete pass, like the sliced percentiles: a burst on the
  // machine moves one pass, not the result. A workload whose stream
  // outlasts the run (the journaled one) reports the run's overall rate.
  report->Set("arrivals_per_s",
              !pass_rates.empty() ? Median(pass_rates)
                                  : static_cast<double>(arrivals) / serve_cpu_s,
              "1/s", arrivals);
  report->Check(arrivals > 0, "served at least one arrival");
}

/// Traced run: an untraced pass, then a traced pass over exactly the same
/// prefix with per-tenant Plan calls; the per-layer metrics come from the
/// spans and the stage replicas.
void RunTraced(Workload* w, const RunConfig& config, Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) report->Set(name, 0.0, unit, 0);

  Fleet plain = w->Setup();
  if (!CheckSetup(plain, report)) return;
  w->AfterSetup(&plain);
  ServeOptions options;
  options.deadline_ns = NowNs() + static_cast<std::int64_t>(config.seconds * 0.5e9);
  options.after_boundary = w->Hook(&plain, nullptr);
  const ServeResult untraced = Serve(&plain, w->stream(), std::move(options));
  HealthCounts health = CountHealth(*plain.fleet);
  w->Teardown(&plain);
  plain.fleet.reset();

  Tracer tracer;
  Fleet traced_fleet = w->Again();
  if (!CheckSetup(traced_fleet, report)) return;
  w->BeginTrace(&traced_fleet, &tracer);
  ServeOptions traced_options;
  traced_options.tracer = &tracer;
  traced_options.max_boundaries = untraced.boundaries;
  traced_options.after_boundary = w->Hook(&traced_fleet, &tracer);
  const ServeResult traced = Serve(&traced_fleet, w->stream(), traced_options);
  report->Check(traced.boundaries == untraced.boundaries &&
                    traced.arrivals == untraced.arrivals,
                "trace: traced pass served the untraced prefix");
  report->Check(traced.digest == untraced.digest,
                "trace: per-tenant Plan digests equal the PlanAll digests");
  report->attempted += untraced.attempted + traced.attempted;
  report->failed += untraced.failed + traced.failed;
  const HealthCounts traced_health = CountHealth(*traced_fleet.fleet);
  health.plan_failures += traced_health.plan_failures;
  health.fallbacks_served += traced_health.fallbacks_served;
  health.rejected_observations += traced_health.rejected_observations;

  report->Set("trace_overhead", traced.serve_s / untraced.serve_s, "ratio", 2);
  const auto& observe_self = tracer.SelfNs("api.Observe");
  report->Set("api.observe_self_ns", Median(observe_self), "ns", observe_self.size());
  report->Set("api.planall_us", Median(untraced.plan_ns) * kUs, "us", untraced.plan_ns.size());
  report->Set("api.arrivals_per_wall_s", static_cast<double>(untraced.arrivals) / untraced.serve_s,
              "1/s", untraced.arrivals);
  std::vector<double> planall_us = untraced.plan_ns;
  for (double& ns : planall_us) ns *= kUs;
  report->SetTail("api.planall_p99_us", ChunkedTail(planall_us, 0.99), "us");
  report->Set("api.tenants_per_boundary", static_cast<double>(traced_fleet.names.size()),
              "count", traced.boundaries);
  double tenant_plan_ns = 0.0;
  for (const Kind kind : {Kind::kHp, Kind::kRt, Kind::kCost, Kind::kBp}) {
    const auto& ns = tracer.TotalNs(std::string("api.Plan.") + KindName(kind));
    const double sum = std::accumulate(ns.begin(), ns.end(), 0.0);
    tenant_plan_ns += sum;
    report->Set(std::string("api.tenant_plan_us.") + KindName(kind),
                ns.empty() ? 0.0 : sum / static_cast<double>(ns.size()) * kUs, "us",
                ns.size());
  }
  const double planall_ns =
      std::accumulate(untraced.plan_ns.begin(), untraced.plan_ns.end(), 0.0);
  const auto workers = static_cast<double>(Workers());
  report->Set("api.fanout_efficiency", tenant_plan_ns / (planall_ns * (workers + 1.0)),
              "ratio", untraced.plan_ns.size());
  report->Set("api.fanout_efficiency_workers", tenant_plan_ns / (planall_ns * workers),
              "ratio", untraced.plan_ns.size());
  report->Set("api.build_s", Median(w->build_ns) * 1e-9, "s", w->build_ns.size());
  report->Set("api.plan_failures", static_cast<double>(health.plan_failures), "count", 1);
  report->Set("api.fallbacks_served", static_cast<double>(health.fallbacks_served), "count", 1);
  report->Set("api.rejected_observations",
              static_cast<double>(health.rejected_observations), "count", 1);

  w->PostServe(&traced_fleet, traced, &tracer, report);
  w->Recover(&traced_fleet, &tracer, report);
  w->Teardown(&traced_fleet);
  StageReplicas(w->replica(), report);
  w->TraceCompanion(config, report);

  const std::string path = config.scratch + "/" + config.workload + ".spans.tsv";
  report->Check(tracer.Write(path), "trace: write span file");
}

}  // namespace

Report RunWorkload(const RunConfig& config) {
  Report report;
  for (const auto& failure : SelfTest()) report.Check(false, "self-test: " + failure);
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    report.Check(false, "unknown workload " + config.workload);
    return report;
  }
  if (config.trace) {
    RunTraced(w.get(), config, &report);
  } else {
    RunUntraced(w.get(), config, &report);
  }
  return report;
}

}  // namespace pb

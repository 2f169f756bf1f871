// Fan-out of clean location events to registered continuous queries.
//
// The paper's §II-B CQL operators (LocationUpdateQuery, FireCodeQuery) and
// the colocation tracker exist as free-standing stream operators; the bus is
// the runtime they live in. A subscription names an operator kind, an
// optional site filter, and a callback; the bus keeps one operator instance
// *per site* inside each subscription, so
//   * sites never share operator state (a fire-code window in site A cannot
//     be polluted by site B's events), and
//   * dispatch from different sites never contends on the same operator
//     beyond a per-subscription mutex, and the event order each operator
//     sees is exactly the (deterministic) per-site event order.
//
// Callbacks run on the pump lane running the dispatching site (Flush()'s on
// the calling thread). They must be fast and must NOT call
// Subscribe/Unsubscribe (the registry lock is held across dispatch). That
// misuse used to deadlock silently on the registry lock;
// Subscribe/Unsubscribe from inside a callback on the dispatching thread now
// throws std::logic_error immediately instead.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serve/record.h"
#include "stream/colocation.h"
#include "stream/events.h"
#include "stream/operator_stats.h"
#include "stream/query.h"
#include "util/thread_annotations.h"

namespace rfid {

/// One operator instance's state-size snapshot, tagged with the
/// subscription and site it belongs to (see stream/operator_stats.h).
struct BusOperatorStats {
  int subscription = 0;
  const char* kind = "";  ///< "location_update" | "fire_code" | "colocation".
  SiteId site = 0;
  OperatorStats stats;
};

class SubscriptionBus {
 public:
  using SubscriptionId = int;
  /// cb(site, event) for raw events and location updates.
  using EventCallback = std::function<void(SiteId, const LocationEvent&)>;
  /// cb(site, alert) for fire-code alerts.
  using AlertCallback = std::function<void(SiteId, const FireCodeAlert&)>;

  SubscriptionBus() = default;

  /// Every clean event, unfiltered (site-filtered when `site` is set).
  SubscriptionId SubscribeEvents(EventCallback cb,
                                 std::optional<SiteId> site = std::nullopt);

  /// Query 1: per-tag location updates with jitter suppression.
  /// `ttl_seconds` > 0 drops partition rows of tags that stop reporting
  /// (see LocationUpdateQuery).
  SubscriptionId SubscribeLocationUpdates(
      double min_change_feet, EventCallback cb,
      std::optional<SiteId> site = std::nullopt, double ttl_seconds = 0.0);

  /// Query 2: sliding-window fire-code monitoring.
  SubscriptionId SubscribeFireCode(double window_seconds, double weight_limit,
                                   FireCodeQuery::WeightFn weight_fn,
                                   double cell_size_feet, AlertCallback cb,
                                   std::optional<SiteId> site = std::nullopt);

  /// Query 2 with the full config (alert hysteresis, cell size).
  SubscriptionId SubscribeFireCode(const FireCodeConfig& config,
                                   FireCodeQuery::WeightFn weight_fn,
                                   AlertCallback cb,
                                   std::optional<SiteId> site = std::nullopt);

  /// Containment candidates; no callback — poll ColocationCandidates().
  SubscriptionId SubscribeColocation(
      const ColocationConfig& config,
      std::optional<SiteId> site = std::nullopt);

  /// Current candidates of a colocation subscription for one site.
  std::vector<ColocationCandidate> ColocationCandidates(SubscriptionId id,
                                                        SiteId site) const;

  bool Unsubscribe(SubscriptionId id);
  size_t num_subscriptions() const;

  /// Discards every subscription's operator instance for `site`, keeping
  /// the subscriptions themselves registered. Called when a site's pipeline
  /// is restored from a checkpoint: the operators saw events the restored
  /// pipeline will replay (or never produce again), so carrying their state
  /// across the restore would double-count or leak entries. Fresh instances
  /// materialize lazily on the site's next event, exactly as at subscribe
  /// time.
  void ResetSiteState(SiteId site);

  /// Feeds one site's freshly produced events to every matching
  /// subscription, in subscription order, preserving event order. Called
  /// from pump lanes; safe to call concurrently for different sites.
  void Dispatch(SiteId site, const std::vector<LocationEvent>& events);

  /// Total events fanned out (events × matching subscriptions).
  uint64_t dispatched_events() const;

  /// State-size snapshots of every materialized operator instance, one row
  /// per (subscription, site), ordered by subscription then site id. Raw
  /// subscriptions hold no state and report nothing.
  std::vector<BusOperatorStats> OperatorStatsSnapshot() const;

 private:
  enum class Kind { kRaw, kLocationUpdate, kFireCode, kColocation };

  /// Per-site operator state, created lazily on the site's first event.
  struct SiteState {
    std::unique_ptr<LocationUpdateQuery> update;
    std::unique_ptr<FireCodeQuery> fire;
    std::unique_ptr<ColocationTracker> coloc;
  };

  /// A subscription's per-site operator instances behind their own mutex
  /// (two shards may dispatch different sites through the same
  /// subscription). Heap-allocated so Subscription stays movable while the
  /// mutex address stays stable.
  struct SiteStates {
    Mutex mu;
    std::unordered_map<SiteId, SiteState> map RFID_GUARDED_BY(mu);
  };

  struct Subscription {
    SubscriptionId id = 0;
    Kind kind = Kind::kRaw;
    std::optional<SiteId> site_filter;
    EventCallback event_cb;
    AlertCallback alert_cb;

    // Operator factory parameters (one instance materialized per site).
    double min_change_feet = 0.0;
    double ttl_seconds = 0.0;
    FireCodeConfig fire_config;
    FireCodeQuery::WeightFn weight_fn;
    ColocationConfig coloc_config;

    std::unique_ptr<SiteStates> states = std::make_unique<SiteStates>();
  };

  SubscriptionId Add(Subscription sub) RFID_EXCLUDES(registry_mu_);
  SiteState& StateFor(const Subscription& sub, SiteStates& states,
                      SiteId site) const RFID_REQUIRES(states.mu);
  /// Throws std::logic_error when called from inside a Dispatch callback on
  /// this thread (re-entrant registry mutation would deadlock on
  /// registry_mu_; failing fast beats hanging a pump lane).
  void CheckNotDispatching(const char* op) const;

  mutable SharedMutex registry_mu_;
  std::vector<Subscription> subs_ RFID_GUARDED_BY(registry_mu_);
  SubscriptionId next_id_ RFID_GUARDED_BY(registry_mu_) = 1;
  std::atomic<uint64_t> dispatched_{0};
};

}  // namespace rfid

#include "serve/ingest_queue.h"

#include <algorithm>

#include "util/fault.h"

namespace rfid {

IngestQueue::IngestQueue(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void IngestQueue::BindMetrics(obs::MetricsRegistry* registry, int shard) {
  if (registry == nullptr) return;
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  enqueue_latency_ =
      registry->GetHistogram("rfid_ingest_enqueue_seconds", label);
  occupancy_ = registry->GetGauge("rfid_ingest_queue_occupancy", label);
  dropped_full_ =
      registry->GetCounter("rfid_ingest_dropped_total",
                           label + ",reason=\"full\"");
  dropped_closed_ =
      registry->GetCounter("rfid_ingest_dropped_total",
                           label + ",reason=\"closed\"");
}

void IngestQueue::NoteAccepted() {
  ++stats_.pushed;
  stats_.high_water = std::max<uint64_t>(stats_.high_water, items_.size());
  if (occupancy_ != nullptr) {
    occupancy_->Set(static_cast<double>(items_.size()));
  }
}

bool IngestQueue::Push(const ServeRecord& record) {
  obs::LatencyTimer timer(enqueue_latency_);
  MutexLock lock(mu_);
  if (MaybeInjectFault(FaultPoint::kQueueEnqueue, record.site)) {
    // An injected enqueue failure models a lost datagram at the ingest
    // boundary: dropped and counted, never enqueued half-written.
    ++stats_.injected_drops;
    return false;
  }
  if (items_.size() >= capacity_ && !closed_) {
    ++stats_.blocked_pushes;
    while (items_.size() >= capacity_ && !closed_) not_full_.Wait(lock);
  }
  if (closed_) {
    ++stats_.rejected_closed;
    if (dropped_closed_ != nullptr) dropped_closed_->Add();
    return false;
  }
  items_.push_back(record);
  NoteAccepted();
  return true;
}

bool IngestQueue::TryPush(const ServeRecord& record) {
  obs::LatencyTimer timer(enqueue_latency_);
  MutexLock lock(mu_);
  if (MaybeInjectFault(FaultPoint::kQueueEnqueue, record.site)) {
    ++stats_.injected_drops;
    return false;
  }
  if (closed_) {
    ++stats_.rejected_closed;
    if (dropped_closed_ != nullptr) dropped_closed_->Add();
    return false;
  }
  if (items_.size() >= capacity_) {
    ++stats_.rejected_full;
    if (dropped_full_ != nullptr) dropped_full_->Add();
    return false;
  }
  items_.push_back(record);
  NoteAccepted();
  return true;
}

size_t IngestQueue::PopBatch(std::vector<ServeRecord>* out,
                             size_t max_records) {
  out->clear();
  MutexLock lock(mu_);
  const size_t n = std::min(max_records, items_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(items_.front());
    items_.pop_front();
  }
  stats_.popped += n;
  if (n > 0) {
    if (occupancy_ != nullptr) {
      occupancy_->Set(static_cast<double>(items_.size()));
    }
    not_full_.NotifyAll();
  }
  return n;
}

void IngestQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.NotifyAll();
}

void IngestQueue::Reopen() {
  MutexLock lock(mu_);
  closed_ = false;
}

size_t IngestQueue::size() const {
  MutexLock lock(mu_);
  return items_.size();
}

IngestQueueStats IngestQueue::Stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace rfid

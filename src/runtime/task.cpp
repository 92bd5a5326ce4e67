#include "runtime/task.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/pacing.hpp"
#include "telemetry/registry.hpp"
#include "util/log.hpp"
#include "util/spin.hpp"

namespace stampede {

namespace {
aru::Mode effective_task_mode(aru::Mode global, const aru::CompressFn& custom) {
  if (global == aru::Mode::kOff || !custom) return global;
  return aru::Mode::kCustom;
}
}  // namespace

TaskContext::TaskContext(RunContext& run, NodeId id, TaskConfig config, aru::Mode mode,
                         std::unique_ptr<Filter> filter, stats::Shard* shard,
                         std::uint64_t seed)
    : run_(run),
      id_(id),
      config_(std::move(config)),
      shard_(shard),
      rng_(seed),
      feedback_(effective_task_mode(mode, config_.custom_compress), /*is_thread=*/true,
                config_.custom_compress, std::move(filter)) {
  if (run_.metrics != nullptr) {
    const telemetry::Registry::Labels labels = {{"task", config_.name}};
    feedback_.bind_gauges(
        &run_.metrics->gauge("aru_task_current_stp_ns",
                             "Measured current-STP of this thread node (0 = unknown)",
                             labels),
        &run_.metrics->gauge(
            "aru_task_summary_stp_ns",
            "Summary-STP this thread node propagates upstream (0 = unknown)",
            labels));
  }
}

void TaskContext::add_input(Channel& ch) {
  const int idx = ch.register_consumer(id_, config_.cluster_node);
  inputs_.push_back(InputPort{.channel = &ch, .consumer_idx = idx});
}

void TaskContext::add_input(Queue& q) {
  const int idx = q.register_consumer(id_, config_.cluster_node);
  inputs_.push_back(InputPort{.queue = &q, .consumer_idx = idx});
}

void TaskContext::add_input(RemoteEndpoint& remote) {
  inputs_.push_back(InputPort{.remote = &remote});
}

void TaskContext::add_output(Channel& ch) {
  ch.register_producer(id_);
  const int slot = feedback_.add_output();
  outputs_.push_back(OutputPort{.channel = &ch, .feedback_slot = slot});
}

void TaskContext::add_output(Queue& q) {
  q.register_producer(id_);
  const int slot = feedback_.add_output();
  outputs_.push_back(OutputPort{.queue = &q, .feedback_slot = slot});
}

void TaskContext::add_output(RemoteEndpoint& remote) {
  const int slot = feedback_.add_output();
  outputs_.push_back(OutputPort{.remote = &remote, .feedback_slot = slot});
}

void TaskContext::record(stats::EventType type, std::int64_t a, std::int64_t b,
                         ItemId item, Timestamp ts) {
  shard_->record(stats::Event{
      .type = type, .node = id_, .ts = ts, .item = item, .t = run_.now_ns(), .a = a, .b = b});
}

void TaskContext::realize_cost(Nanos d) {
  if (d.count() <= 0) return;
  if (run_.cost_mode == CostMode::kSleep) {
    run_.clock->sleep_for(d);
  } else {
    busy_spin_for(*run_.clock, d);
  }
}

void TaskContext::apply_overhead(Nanos d) {
  if (d.count() <= 0) return;
  realize_cost(d);
  record(stats::EventType::kOverhead, d.count());
}

void TaskContext::hold_replica(InputPort& port, std::shared_ptr<const Item> item) {
  drop_replica(port);
  const auto bytes = static_cast<std::int64_t>(item->bytes());
  run_.tracker->on_alloc(config_.cluster_node, bytes);
  record(stats::EventType::kReplicate, bytes, config_.cluster_node, item->id(), item->ts());
  port.replica = std::move(item);
}

void TaskContext::drop_replica(InputPort& port) {
  if (!port.replica) return;
  const auto bytes = static_cast<std::int64_t>(port.replica->bytes());
  run_.tracker->on_free(config_.cluster_node, bytes);
  record(stats::EventType::kReplicaFree, bytes, config_.cluster_node, port.replica->id(),
         port.replica->ts());
  port.replica.reset();
}

void TaskContext::drop_all_replicas() {
  for (InputPort& port : inputs_) drop_replica(port);
}

bool TaskContext::stopping() const {
  return run_.stopping.load(std::memory_order_relaxed) ||
         (stop_token_.stop_possible() && stop_token_.stop_requested());
}

std::shared_ptr<const Item> TaskContext::get(std::size_t idx) {
  if (idx >= inputs_.size()) throw std::out_of_range("TaskContext::get: bad input index");
  InputPort& port = inputs_[idx];

  // DGC: propagate downstream knowledge upstream — the lowest output
  // timestamp our own consumers still want bounds what inputs we need.
  Timestamp extra = kNoTimestamp;
  if (run_.gc == gc::Kind::kDeadTimestamp && !outputs_.empty()) {
    bool all_channels = true;
    Timestamp lo = std::numeric_limits<Timestamp>::max();
    for (const OutputPort& out : outputs_) {
      if (out.channel == nullptr) {
        all_channels = false;
        break;
      }
      lo = std::min(lo, out.channel->frontier());
    }
    if (all_channels && lo != std::numeric_limits<Timestamp>::max()) extra = lo;
  }

  const Nanos my_summary = run_.aru.enabled() ? feedback_.summary() : aru::kUnknownStp;

  std::shared_ptr<const Item> item;
  Nanos blocked{0};
  Nanos transfer{0};
  Nanos overhead{0};
  if (port.channel != nullptr) {
    auto res = port.channel->get_latest(port.consumer_idx, my_summary, extra, stop_token_);
    item = std::move(res.item);
    blocked = res.blocked;
    transfer = res.transfer;
    overhead = res.overhead;
  } else if (port.remote != nullptr) {
    // Real network transfer: the RPC's wall time already contains the
    // transfer, so only blocked time is accounted (no simulated cost).
    auto res = port.remote->get_latest(my_summary, extra, stop_token_);
    item = std::move(res.item);
    blocked = res.blocked;
  } else {
    auto res = port.queue->get(port.consumer_idx, my_summary, stop_token_);
    item = std::move(res.item);
    blocked = res.blocked;
    transfer = res.transfer;
    overhead = res.overhead;
  }

  if (blocked.count() > 0) {
    meter_.add_blocked(blocked);
    record(stats::EventType::kBlocked, blocked.count());
  }
  if (item && transfer.count() > 0) {
    realize_cost(transfer);
    record(stats::EventType::kTransfer, transfer.count(),
           static_cast<std::int64_t>(item->bytes()), item->id(), item->ts());
    hold_replica(port, item);
  }
  apply_overhead(overhead);
  return item;
}

std::shared_ptr<const Item> TaskContext::get_next(std::size_t idx) {
  if (idx >= inputs_.size()) throw std::out_of_range("TaskContext::get_next: bad input index");
  InputPort& port = inputs_[idx];
  if (port.channel == nullptr) {
    throw std::logic_error("TaskContext::get_next: input is not a channel");
  }
  const Nanos my_summary = run_.aru.enabled() ? feedback_.summary() : aru::kUnknownStp;
  auto res = port.channel->get_next(port.consumer_idx, my_summary, kNoTimestamp, stop_token_);
  if (res.blocked.count() > 0) {
    meter_.add_blocked(res.blocked);
    record(stats::EventType::kBlocked, res.blocked.count());
  }
  if (res.item && res.transfer.count() > 0) {
    realize_cost(res.transfer);
    record(stats::EventType::kTransfer, res.transfer.count(),
           static_cast<std::int64_t>(res.item->bytes()), res.item->id(), res.item->ts());
    hold_replica(port, res.item);
  }
  apply_overhead(res.overhead);
  return res.item;
}

std::shared_ptr<const Item> TaskContext::get_at(std::size_t idx, Timestamp ts) {
  if (idx >= inputs_.size()) throw std::out_of_range("TaskContext::get_at: bad input index");
  InputPort& port = inputs_[idx];
  if (port.channel == nullptr) {
    throw std::logic_error("TaskContext::get_at: input is not a channel");
  }
  const Nanos my_summary = run_.aru.enabled() ? feedback_.summary() : aru::kUnknownStp;
  auto res = port.channel->get_at(port.consumer_idx, ts, my_summary);
  if (res.item && res.transfer.count() > 0) {
    realize_cost(res.transfer);
    record(stats::EventType::kTransfer, res.transfer.count(),
           static_cast<std::int64_t>(res.item->bytes()), res.item->id(), res.item->ts());
    hold_replica(port, res.item);
  }
  apply_overhead(res.overhead);
  return res.item;
}

std::shared_ptr<const Item> TaskContext::get_nearest(std::size_t idx, Timestamp ts,
                                                     Timestamp tolerance) {
  if (idx >= inputs_.size()) {
    throw std::out_of_range("TaskContext::get_nearest: bad input index");
  }
  InputPort& port = inputs_[idx];
  if (port.channel == nullptr) {
    throw std::logic_error("TaskContext::get_nearest: input is not a channel");
  }
  const Nanos my_summary = run_.aru.enabled() ? feedback_.summary() : aru::kUnknownStp;
  auto res = port.channel->get_nearest(port.consumer_idx, ts, tolerance, my_summary);
  if (res.item && res.transfer.count() > 0) {
    realize_cost(res.transfer);
    record(stats::EventType::kTransfer, res.transfer.count(),
           static_cast<std::int64_t>(res.item->bytes()), res.item->id(), res.item->ts());
    hold_replica(port, res.item);
  }
  apply_overhead(res.overhead);
  return res.item;
}

std::vector<std::shared_ptr<const Item>> TaskContext::get_window(std::size_t idx,
                                                                 std::size_t window) {
  if (idx >= inputs_.size()) {
    throw std::out_of_range("TaskContext::get_window: bad input index");
  }
  InputPort& port = inputs_[idx];
  if (port.channel == nullptr) {
    throw std::logic_error("TaskContext::get_window: input is not a channel");
  }
  const Nanos my_summary = run_.aru.enabled() ? feedback_.summary() : aru::kUnknownStp;
  auto res = port.channel->get_window(port.consumer_idx, window, my_summary, stop_token_);
  if (res.blocked.count() > 0) {
    meter_.add_blocked(res.blocked);
    record(stats::EventType::kBlocked, res.blocked.count());
  }
  if (!res.items.empty() && res.transfer.count() > 0) {
    const auto& newest = res.items.back();
    realize_cost(res.transfer);
    record(stats::EventType::kTransfer, res.transfer.count(),
           static_cast<std::int64_t>(newest->bytes()), newest->id(), newest->ts());
    hold_replica(port, newest);
  }
  apply_overhead(res.overhead);
  return std::move(res.items);
}

void TaskContext::release_until(std::size_t idx, Timestamp ts) {
  if (idx >= inputs_.size()) {
    throw std::out_of_range("TaskContext::release_until: bad input index");
  }
  InputPort& port = inputs_[idx];
  if (port.channel == nullptr) {
    throw std::logic_error("TaskContext::release_until: input is not a channel");
  }
  port.channel->raise_guarantee(port.consumer_idx, ts);
}

void TaskContext::compute(Nanos cost) {
  if (cost.count() <= 0) return;
  // Memory-pressure dilation: computing against a bloated node-resident
  // working set is slower (see PressureModel::compute_dilation_per_mb).
  const double dil = run_.pressure.dilation(run_.tracker->node_bytes(config_.cluster_node));
  Nanos effective{static_cast<std::int64_t>(static_cast<double>(cost.count()) * dil)};
  // Scheduler noise: occasional exponential preemption burst stretches
  // this iteration (the paper's intermittent large summary-STP values).
  if (run_.sched_noise.enabled() && rng_.uniform() < run_.sched_noise.preempt_prob) {
    const double u = std::max(rng_.uniform(), 1e-12);
    const double burst =
        -std::log(u) * static_cast<double>(run_.sched_noise.slice_mean.count());
    effective += Nanos{static_cast<std::int64_t>(burst)};
  }
  realize_cost(effective);
  unattributed_compute_ += effective;
}

void TaskContext::account_compute(Nanos cost) {
  if (cost.count() > 0) unattributed_compute_ += cost;
}

bool TaskContext::outputs_want(Timestamp ts) const {
  if (run_.gc != gc::Kind::kDeadTimestamp) return true;
  if (outputs_.empty()) return true;
  for (const OutputPort& out : outputs_) {
    if (out.channel == nullptr) return true;  // queues: no frontier knowledge
    if (out.channel->frontier() <= ts) return true;
  }
  return false;
}

void TaskContext::elide(Nanos saved) {
  record(stats::EventType::kElide, saved.count());
}

std::shared_ptr<Item> TaskContext::make_item(Timestamp ts, std::size_t bytes,
                                             std::vector<ItemId> lineage) {
  // Allocation pressure: allocating into a bloated node costs more.
  apply_overhead(run_.pressure.alloc_cost(run_.tracker->node_bytes(config_.cluster_node)));

  auto item = std::make_shared<Item>(run_, ts, bytes, id_, config_.cluster_node,
                                     std::move(lineage), Nanos{0});
  record(stats::EventType::kAlloc, static_cast<std::int64_t>(bytes), config_.cluster_node,
         item->id(), ts);
  return item;
}

bool TaskContext::put(std::size_t idx, std::shared_ptr<Item> item) {
  if (!item) throw std::invalid_argument("TaskContext::put: null item");
  if (idx >= outputs_.size()) throw std::out_of_range("TaskContext::put: bad output index");
  OutputPort& port = outputs_[idx];

  // Attribute the compute accumulated since the last put as this item's
  // production cost (the paper's per-item wasted-computation accounting).
  const Nanos produce_cost = unattributed_compute_;
  unattributed_compute_ = Nanos{0};
  item->set_produce_cost(produce_cost);
  shard_->record_item(stats::ItemRecord{
      .id = item->id(),
      .ts = item->ts(),
      .bytes = static_cast<std::int64_t>(item->bytes()),
      .producer = id_,
      .cluster_node = config_.cluster_node,
      .t_alloc = item->t_alloc(),
      .produce_cost = produce_cost.count(),
  }, item->lineage());
  if (produce_cost.count() > 0) {
    record(stats::EventType::kCompute, produce_cost.count(), 0, item->id(), item->ts());
  }

  Nanos summary{0};
  Nanos overhead{0};
  Nanos blocked{0};
  bool stored = false;
  if (port.channel != nullptr) {
    auto res = port.channel->put(std::move(item), stop_token_);
    summary = res.channel_summary;
    overhead = res.overhead;
    blocked = res.blocked;
    stored = res.stored;
  } else if (port.remote != nullptr) {
    auto res = port.remote->put(std::move(item), stop_token_);
    summary = res.summary;
    // A drop on a dead link is a successful iteration from the producer's
    // point of view: it keeps producing (and pacing against the held
    // summary-STP) rather than treating the pipeline as finished.
    stored = res.stored || res.dropped;
  } else {
    auto res = port.queue->put(std::move(item), stop_token_);
    summary = res.queue_summary;
    overhead = res.overhead;
    blocked = res.blocked;
    stored = res.stored;
  }

  if (blocked.count() > 0) {
    meter_.add_blocked(blocked);
    record(stats::EventType::kBlocked, blocked.count());
  }
  apply_overhead(overhead);

  // Backward STP propagation: the buffer's summary reaches us on the put.
  if (run_.aru.enabled() && aru::known(summary)) {
    feedback_.update_backward(port.feedback_slot, summary);
  }
  return stored;
}

void TaskContext::emit(const Item& source) {
  record(stats::EventType::kEmit, 0, 0, source.id(), source.ts());
  run_.recorder->count_emit();
}

void TaskContext::display(Timestamp newest_ts) {
  record(stats::EventType::kDisplay, 0, 0, 0, newest_ts);
}

void TaskContext::begin_iteration() {
  meter_.begin_iteration(run_.clock->now());
  synced_this_iteration_ = false;
}

void TaskContext::periodicity_sync() {
  if (synced_this_iteration_) return;
  synced_this_iteration_ = true;

  // Any residual (sink) work of this iteration counts as compute.
  if (unattributed_compute_.count() > 0) {
    record(stats::EventType::kCompute, unattributed_compute_.count());
    unattributed_compute_ = Nanos{0};
  }

  const Nanos now = run_.clock->now();
  const Nanos current = meter_.end_iteration(now);

  if (run_.aru.enabled()) {
    feedback_.set_current_stp(current);
    record(stats::EventType::kStp, current.count(), feedback_.summary().count());

    if (aru::should_pace(run_.aru, is_source_)) {
      const Nanos elapsed = now - meter_.iteration_start();
      const Nanos sleep =
          aru::pacing_sleep(feedback_.summary(), elapsed, run_.aru.pace_gain);
      if (sleep.count() > 0 && !stopping()) {
        // Pacing is idle time, never emulated work: always a real sleep.
        run_.clock->sleep_for(sleep);
        record(stats::EventType::kSleep, sleep.count());
      }
    }
  }
}

void TaskContext::run_loop(std::stop_token st) {
  stop_token_ = st;
  while (!st.stop_requested() && !run_.stopping.load(std::memory_order_relaxed)) {
    begin_iteration();
    TaskStatus status = TaskStatus::kDone;
    try {
      status = config_.body(*this);
    } catch (const std::exception& e) {
      STAMPEDE_LOG(kError) << "task '" << config_.name << "' threw: " << e.what();
      break;
    }
    periodicity_sync();
    if (status == TaskStatus::kDone) break;
  }
  drop_all_replicas();
}

}  // namespace stampede

// Serving front-end tests (docs/serving.md): deadline-aware admission and
// the overload ladder (deterministic, using a workerless server so nothing
// dequeues underneath the assertions), batch coalescing numerics, drain
// semantics, fault-injected retry + blacklist reuse, and the soak guarantee
// that under sustained overload with serve.* faults armed every request
// resolves to exactly one of kSuccess / kDeadlineExceeded / kRejected /
// kShuttingDown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/fault_injection.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

using serve::Batcher;
using serve::MergedBatch;
using serve::RequestQueue;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::Server;
using serve::Ticket;
using serve::TicketPtr;

std::shared_ptr<device::Device> cpu() {
  return std::make_shared<device::Device>(device::host_cpu_spec());
}

core::Options core_opts() {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = std::size_t{4} << 20;
  return opts;
}

/// Tiny per-sample problem: cheap on HostCpu, real numerics.
kernels::ConvProblem sample_problem(std::int64_t batch = 1) {
  return kernels::ConvProblem({batch, 2, 6, 6}, {4, 2, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

ServeOptions workerless(std::size_t capacity = 4) {
  ServeOptions opts;
  opts.workers = 0;
  opts.queue_capacity = capacity;
  // Watermarks at 1.0: the ladder's early rungs stay out of the way so
  // admission tests can fill the queue to capacity with equal priorities.
  opts.window_watermark = 1.0;
  opts.shed_watermark = 1.0;
  return opts;
}

/// One client-side request: owns its operand buffers.
struct Client {
  explicit Client(std::int64_t samples, std::uint64_t seed,
                  const AlignedBuffer<float>& weights)
      : problem(sample_problem(samples)),
        input(static_cast<std::size_t>(problem.x.count())),
        output(static_cast<std::size_t>(problem.y.count()), true),
        weights_(weights.data()) {
    fill_random(input.data(), problem.x.count(), seed);
  }

  ServeRequest request(int priority = 0, double deadline_ms = 0.0) {
    ServeRequest req;
    req.problem = problem;
    req.input = input.data();
    req.weights = weights_;
    req.output = output.data();
    req.priority = priority;
    req.deadline_ms = deadline_ms;
    return req;
  }

  kernels::ConvProblem problem;
  AlignedBuffer<float> input;
  AlignedBuffer<float> output;
  const float* weights_;
};

AlignedBuffer<float> make_weights(std::uint64_t seed = 77) {
  const kernels::ConvProblem p = sample_problem();
  AlignedBuffer<float> w(static_cast<std::size_t>(p.w.count()));
  fill_random(w.data(), p.w.count(), seed);
  return w;
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().configure(""); }
};

// --- admission & overload ladder (workerless => deterministic) ------------

TEST_F(ServeTest, AdmitsUntilFullThenRejectsAndDrainFailsQueued) {
  core::UcudnnHandle handle(cpu(), core_opts());
  Server server(handle, workerless(4));
  const AlignedBuffer<float> weights = make_weights();

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<TicketPtr> queued;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(1, 100 + i, weights));
    TicketPtr ticket = server.submit(clients.back()->request());
    EXPECT_FALSE(ticket->done());
    queued.push_back(ticket);
  }
  EXPECT_EQ(server.queue_depth(), 4u);
  EXPECT_EQ(server.overload_level(), 3);

  // Queue full, equal priority: immediate kRejected, caller never blocks.
  Client extra(1, 200, weights);
  TicketPtr rejected = server.submit(extra.request());
  ASSERT_TRUE(rejected->done());
  EXPECT_EQ(rejected->wait(), Status::kRejected);

  server.drain();
  for (const TicketPtr& ticket : queued) {
    ASSERT_TRUE(ticket->done());
    EXPECT_EQ(ticket->wait(), Status::kShuttingDown);
  }
  // Submit after drain: immediate kShuttingDown.
  TicketPtr late = server.submit(extra.request());
  EXPECT_EQ(late->wait(), Status::kShuttingDown);

  const Server::Counters c = server.counters();
  EXPECT_EQ(c.admitted, 4u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.shutdown_failed, 5u);
  EXPECT_EQ(c.completed, 0u);
}

TEST_F(ServeTest, OverloadLadderShedsByPriority) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions ladder_opts;  // default watermarks: rung 1 at depth 2, rung 2
  ladder_opts.workers = 0;   // at depth 3, rung 3 when full
  ladder_opts.queue_capacity = 4;
  Server server(handle, ladder_opts);
  const AlignedBuffer<float> weights = make_weights();

  std::vector<std::unique_ptr<Client>> clients;
  auto submit = [&](int priority) {
    clients.push_back(
        std::make_unique<Client>(1, 300 + clients.size(), weights));
    return server.submit(clients.back()->request(priority));
  };

  TicketPtr a = submit(1);  // depth 0: rung 0
  TicketPtr b = submit(1);  // depth 1: rung 0
  TicketPtr c = submit(1);  // depth 2: rung 1 (window collapse only)
  EXPECT_EQ(server.overload_level(), 2);
  // Rung 2: only arrivals beating the lowest queued priority get the slot.
  TicketPtr d = submit(2);
  EXPECT_FALSE(d->done());
  EXPECT_EQ(server.overload_level(), 3);
  // Rung 3 (full): a strictly higher-priority arrival evicts the lowest
  // (newest among equals => c), an equal/lower one is rejected.
  TicketPtr e = submit(5);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->wait(), Status::kRejected);
  EXPECT_FALSE(e->done());
  TicketPtr f = submit(0);
  EXPECT_EQ(f->wait(), Status::kRejected);

  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.admitted, 5u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.rejected, 2u);  // the shed victim + the refused arrival

  server.drain();
  for (const TicketPtr& ticket : {a, b, d, e}) {
    EXPECT_EQ(ticket->wait(), Status::kShuttingDown);
  }
}

TEST_F(ServeTest, ExpiredInQueueRequestsAreShed) {
  core::UcudnnHandle handle(cpu(), core_opts());
  Server server(handle, workerless());
  const AlignedBuffer<float> weights = make_weights();

  Client stale_client(1, 400, weights);
  TicketPtr stale = server.submit(stale_client.request(0, /*deadline_ms=*/2));
  EXPECT_FALSE(stale->done());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Admission of the next request purges expired entries in passing.
  Client fresh_client(1, 401, weights);
  TicketPtr fresh = server.submit(fresh_client.request());
  ASSERT_TRUE(stale->done());
  EXPECT_EQ(stale->wait(), Status::kDeadlineExceeded);
  EXPECT_FALSE(fresh->done());
  EXPECT_EQ(server.counters().expired, 1u);
  server.drain();
}

TEST_F(ServeTest, NextBatchHandsBackExpiredTicketsInsteadOfSleeping) {
  // Regression: next_batch used to purge expired tickets into the caller's
  // stale vector and then go back to sleep on the condvar — at the tail of a
  // load burst no new traffic arrives to wake the worker, so the purged
  // tickets (and their waiting clients) hung forever. An empty-queue purge
  // must hand the expired tickets back immediately.
  RequestQueue queue(workerless(4));
  const AlignedBuffer<float> weights = make_weights();
  Client client(1, 420, weights);
  auto ticket = std::make_shared<Ticket>(client.request(0, 2.0));
  ticket->set_deadline(ticket->submitted() + std::chrono::milliseconds(2));
  ASSERT_EQ(queue.try_enqueue(ticket, 0.0).status, Status::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::vector<TicketPtr> stale;
  const std::vector<TicketPtr> batch =
      queue.next_batch(/*window_us=*/0, /*max_batch=*/64,
                       /*est_service_ms=*/0.0, &stale);
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].get(), ticket.get());
}

TEST_F(ServeTest, ShedExpiredMaintenanceHook) {
  core::UcudnnHandle handle(cpu(), core_opts());
  Server server(handle, workerless());
  const AlignedBuffer<float> weights = make_weights();

  Client client(1, 410, weights);
  TicketPtr ticket = server.submit(client.request(0, /*deadline_ms=*/2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.shed_expired(), 1u);
  EXPECT_EQ(ticket->wait(), Status::kDeadlineExceeded);
  server.drain();
}

TEST_F(ServeTest, LateStragglerTightensBatchWindow) {
  // Regression: next_batch computed the deadline-capped window end only from
  // the members present at seed time, so a straggler joining during the wait
  // with a tight deadline was held for the full batch window — past its
  // latest viable start. Late joiners must tighten the window too.
  RequestQueue queue(workerless(8));
  const AlignedBuffer<float> weights = make_weights();

  Client seed_client(1, 950, weights);
  auto seed = std::make_shared<Ticket>(seed_client.request());  // no deadline
  ASSERT_EQ(queue.try_enqueue(seed, 0.0).status, Status::kSuccess);

  Client late_client(1, 951, weights);
  auto late = std::make_shared<Ticket>(late_client.request());
  late->set_deadline(late->submitted() + std::chrono::milliseconds(100));
  std::thread submitter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.try_enqueue(late, 0.0);
  });

  const auto start = std::chrono::steady_clock::now();
  std::vector<TicketPtr> stale;
  const std::vector<TicketPtr> batch =
      queue.next_batch(/*window_us=*/10'000'000, /*max_batch=*/64,
                       /*est_service_ms=*/0.0, &stale);
  submitter.join();
  ASSERT_EQ(batch.size(), 2u);
  // Returned around the straggler's deadline-capped latest start, not the
  // 10 s window the seed alone would have allowed.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST_F(ServeTest, UnmeetableDeadlineRejectedAtAdmission) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  // Establish a positive service-time estimate with one real batch.
  Client warmup(1, 420, weights);
  EXPECT_EQ(server.submit(warmup.request())->wait(), Status::kSuccess);
  ASSERT_GT(server.service_estimate_ms(), 0.0);

  // A microsecond-scale deadline is provably unmeetable under the estimate:
  // resolved kDeadlineExceeded at admission, without occupying the queue.
  Client hopeless(1, 421, weights);
  TicketPtr ticket = server.submit(hopeless.request(0, /*deadline_ms=*/1e-6));
  ASSERT_TRUE(ticket->done());
  EXPECT_EQ(ticket->wait(), Status::kDeadlineExceeded);
}

TEST_F(ServeTest, StaleSlowEstimateRecoversOnAnIdleServer) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.retry_backoff_us = 40'000;  // 40 + 80 + 160 ms of retry backoff
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();
  constexpr double kDeadlineMs = 30.0;

  Client warmup(1, 440, weights);
  EXPECT_EQ(server.submit(warmup.request())->wait(), Status::kSuccess);

  // One slow batch: three injected exec failures, each retried after its
  // backoff, push the service estimate past the deadline.
  FaultInjector::instance().configure("serve.exec:every=1,count=3");
  Client slow(1, 441, weights);
  EXPECT_EQ(server.submit(slow.request())->wait(), Status::kSuccess);
  FaultInjector::instance().configure("");
  ASSERT_GT(server.service_estimate_ms(), kDeadlineMs);

  // Once no batch has confirmed the estimate within its own length, an idle
  // server admits again; every fast batch pulls the estimate back down.
  int served = 0;
  for (int i = 0; i < 20 && server.service_estimate_ms() > kDeadlineMs; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        server.service_estimate_ms() + 5.0));
    Client later(1, 450 + static_cast<std::uint64_t>(i), weights);
    EXPECT_EQ(server.submit(later.request(0, kDeadlineMs))->wait(),
              Status::kSuccess);
    ++served;
  }
  EXPECT_GT(served, 0);
  EXPECT_LT(server.service_estimate_ms(), kDeadlineMs);
}

// --- numerics -------------------------------------------------------------

TEST_F(ServeTest, ServedSingletonMatchesDirectConvolution) {
  const AlignedBuffer<float> weights = make_weights();
  Client client(2, 500, weights);

  core::UcudnnHandle direct(cpu(), core_opts());
  AlignedBuffer<float> expected(
      static_cast<std::size_t>(client.problem.y.count()), true);
  direct.convolution(ConvKernelType::kForward, client.problem, 1.0f,
                     client.input.data(), weights.data(), 0.0f,
                     expected.data());

  core::UcudnnHandle served_handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.pad_to_pow2 = false;  // singleton passes client buffers through
  Server server(served_handle, opts);
  EXPECT_EQ(server.submit(client.request())->wait(), Status::kSuccess);

  EXPECT_LT(max_rel_diff(client.output.data(), expected.data(),
                         client.problem.y.count()),
            1e-3);
}

TEST_F(ServeTest, BatcherMergeScatterMatchesPerRequestResults) {
  const AlignedBuffer<float> weights = make_weights();
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<TicketPtr> tickets;
  const std::int64_t sizes[] = {1, 2, 1, 1};  // total 5 -> padded 8
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(sizes[i], 600 + i, weights));
    tickets.push_back(
        std::make_shared<serve::Ticket>(clients.back()->request()));
  }

  Batcher batcher(/*pad_to_pow2=*/true);
  MergedBatch merged = batcher.build(tickets);
  EXPECT_EQ(merged.total, 5);
  EXPECT_EQ(merged.padded, 8);
  EXPECT_TRUE(merged.staged);
  ASSERT_EQ(merged.problem.batch(), 8);

  core::UcudnnHandle handle(cpu(), core_opts());
  handle.convolution(merged.type, merged.problem, merged.alpha, merged.a,
                     merged.b, merged.beta, merged.out);
  batcher.scatter(merged, tickets);

  core::UcudnnHandle reference(cpu(), core_opts());
  for (const auto& client : clients) {
    AlignedBuffer<float> expected(
        static_cast<std::size_t>(client->problem.y.count()), true);
    reference.convolution(ConvKernelType::kForward, client->problem, 1.0f,
                          client->input.data(), weights.data(), 0.0f,
                          expected.data());
    EXPECT_LT(max_rel_diff(client->output.data(), expected.data(),
                           client->problem.y.count()),
              1e-3);
  }
}

TEST_F(ServeTest, CoalescesConcurrentSameShapeRequests) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.batch_window_us = 250'000;  // hold wide open: submits land in one batch
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(1, 700 + i, weights));
    tickets.push_back(server.submit(clients.back()->request()));
  }
  for (const TicketPtr& ticket : tickets) {
    EXPECT_EQ(ticket->wait(), Status::kSuccess);
  }
  const Server::Counters c = server.counters();
  EXPECT_EQ(c.completed, 4u);
  EXPECT_EQ(c.batched_requests, 4u);
  // All four submits land inside the quarter-second window; the worker
  // merges them instead of running four batch-1 convolutions.
  EXPECT_LE(c.batches, 2u);
}

TEST_F(ServeTest, ConcurrentBackwardRequestsRunAsSingletons) {
  // Regression: coalescible() used to accept same-shape backward pairs, so
  // the queue merged two concurrent backward requests into one batch that
  // Batcher::build then refused with kBadParam — valid requests spuriously
  // failed. Backward requests must never coalesce, and must still succeed
  // (as singleton batches) when submitted concurrently.
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.batch_window_us = 50'000;  // wide open: a coalescible pair WOULD merge
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  const kernels::ConvProblem problem = sample_problem(2);
  struct BwdClient {
    BwdClient(const kernels::ConvProblem& p, std::uint64_t seed)
        : dy(static_cast<std::size_t>(p.y.count())),
          dx(static_cast<std::size_t>(p.x.count()), true) {
      fill_random(dy.data(), p.y.count(), seed);
    }
    AlignedBuffer<float> dy;
    AlignedBuffer<float> dx;
  };
  BwdClient c1(problem, 940), c2(problem, 941);
  auto request_of = [&](BwdClient& c) {
    ServeRequest req;
    req.type = ConvKernelType::kBackwardData;
    req.problem = problem;
    req.input = c.dy.data();
    req.weights = weights.data();
    req.output = c.dx.data();
    return req;
  };
  EXPECT_FALSE(serve::coalescible(request_of(c1), request_of(c2)));

  TicketPtr t1 = server.submit(request_of(c1));
  TicketPtr t2 = server.submit(request_of(c2));
  EXPECT_EQ(t1->wait(), Status::kSuccess);
  EXPECT_EQ(t2->wait(), Status::kSuccess);

  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.batches, 2u);  // singletons: never merged

  core::UcudnnHandle reference(cpu(), core_opts());
  for (BwdClient* c : {&c1, &c2}) {
    AlignedBuffer<float> expected(static_cast<std::size_t>(problem.x.count()),
                                  true);
    reference.convolution(ConvKernelType::kBackwardData, problem, 1.0f,
                          c->dy.data(), weights.data(), 0.0f,
                          expected.data());
    EXPECT_LT(max_rel_diff(c->dx.data(), expected.data(), problem.x.count()),
              1e-3);
  }
}

// --- drain ----------------------------------------------------------------

TEST_F(ServeTest, DrainFlushesInFlightBatch) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.batch_window_us = 10'000'000;  // in-flight batch parked for stragglers
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  Client client(1, 800, weights);
  TicketPtr ticket = server.submit(client.request());
  // Wait for the worker to claim the request (it then idles in the batch
  // window); the request is now in flight, not queued.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (server.queue_depth() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(server.queue_depth(), 0u);

  // Drain must flush the claimed batch (kSuccess), not fail it — and must
  // not wait out the 10 s window.
  server.drain();
  ASSERT_TRUE(ticket->done());
  EXPECT_EQ(ticket->wait(), Status::kSuccess);
  EXPECT_EQ(server.counters().completed, 1u);
  EXPECT_EQ(server.counters().shutdown_failed, 0u);
}

// --- fault injection ------------------------------------------------------

TEST_F(ServeTest, InjectedAdmissionFaultRejects) {
  // Configured BEFORE the server exists: the clause parks on the dotted
  // site name and arms when the Server registers serve.enqueue.
  FaultInjector::instance().configure("serve.enqueue:every=2");
  core::UcudnnHandle handle(cpu(), core_opts());
  Server server(handle, workerless());
  const AlignedBuffer<float> weights = make_weights();

  Client client(1, 900, weights);
  TicketPtr first = server.submit(client.request());
  EXPECT_FALSE(first->done());  // check 1: pass
  TicketPtr second = server.submit(client.request());
  ASSERT_TRUE(second->done());  // check 2: injected rejection
  EXPECT_EQ(second->wait(), Status::kRejected);
  EXPECT_EQ(server.counters().rejected, 1u);
  server.drain();
}

TEST_F(ServeTest, TransientExecFaultIsRetriedToSuccess) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.retry_backoff_us = 10;
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  // Warm the plan first so the failure hits steady-state execution.
  Client warmup(1, 910, weights);
  EXPECT_EQ(server.submit(warmup.request())->wait(), Status::kSuccess);

  FaultInjector::instance().configure("serve.exec:every=2");
  Client client(1, 911, weights);
  // Check 1 passes; check 2 (first attempt of this batch)... every=2 fires
  // on even checks, so whichever attempt hits an even check fails and the
  // retry (odd check) succeeds. Submit two: both must succeed via retries.
  TicketPtr t1 = server.submit(client.request());
  EXPECT_EQ(t1->wait(), Status::kSuccess);
  Client client2(1, 912, weights);
  TicketPtr t2 = server.submit(client2.request());
  EXPECT_EQ(t2->wait(), Status::kSuccess);
  EXPECT_GE(server.counters().retried, 1u);
  EXPECT_EQ(server.counters().exec_failed, 0u);
}

TEST_F(ServeTest, RetryRestoresBetaAccumulatedOutputBeforeReexecution) {
  // Regression: an unstaged singleton with beta != 0 executes directly into
  // the client's output buffer; a transient failure whose attempt already
  // wrote it used to let the retry re-read the accumulated values and apply
  // beta twice. The retry ladder must restore the pre-attempt output first.
  // (The serve.exec fault point sits after the convolution precisely so this
  // worst case is injectable.)
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  opts.pad_to_pow2 = false;  // singleton stays unstaged: the direct path
  opts.retry_backoff_us = 10;
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  // Warm the plan so the injected failure hits steady-state execution.
  Client warmup(1, 930, weights);
  EXPECT_EQ(server.submit(warmup.request())->wait(), Status::kSuccess);

  Client client(1, 931, weights);
  fill_random(client.output.data(), client.problem.y.count(), 932);
  AlignedBuffer<float> expected(
      static_cast<std::size_t>(client.problem.y.count()));
  std::copy(client.output.data(),
            client.output.data() + client.problem.y.count(), expected.data());
  core::UcudnnHandle direct(cpu(), core_opts());
  direct.convolution(ConvKernelType::kForward, client.problem, 1.0f,
                     client.input.data(), weights.data(), 1.0f,
                     expected.data());

  // Exactly the first execution attempt fails — after its convolution ran
  // and accumulated into the client buffer.
  FaultInjector::instance().configure("serve.exec:every=1,count=1");
  ServeRequest req = client.request();
  req.beta = 1.0f;
  EXPECT_EQ(server.submit(req)->wait(), Status::kSuccess);
  EXPECT_GE(server.counters().retried, 1u);
  EXPECT_LT(max_rel_diff(client.output.data(), expected.data(),
                         client.problem.y.count()),
            1e-3);
}

TEST_F(ServeTest, KernelFaultsEngageExecutorBlacklistLadder) {
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 1;
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  // Warm up with no faults so planning/benchmarking are done and cached.
  Client warmup(1, 920, weights);
  EXPECT_EQ(server.submit(warmup.request())->wait(), Status::kSuccess);

  // Four consecutive kernel-level failures: the executor's ladder (PR 2)
  // burns its retries, blacklists the algorithm, re-plans onto the
  // runner-up — and the serve request still succeeds.
  FaultInjector::instance().configure("kernel:every=1,count=4");
  Client client(1, 921, weights);
  EXPECT_EQ(server.submit(client.request())->wait(), Status::kSuccess);
  EXPECT_GE(handle.degradation_stats().blacklisted_algorithms.value(), 1u);
}

// --- soak: the no-hang guarantee under overload + faults ------------------

TEST_F(ServeTest, SoakOverloadWithFaultsEveryRequestResolves) {
  FaultInjector::instance().configure(
      "serve.enqueue:p=0.05,seed=7;serve.exec:every=13;serve.batch:every=17");
  core::UcudnnHandle handle(cpu(), core_opts());
  ServeOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 16;  // ~4x overload vs the submit rate below
  opts.batch_window_us = 100;
  opts.max_batch = 8;
  opts.retry_backoff_us = 10;
  Server server(handle, opts);
  const AlignedBuffer<float> weights = make_weights();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::vector<std::unique_ptr<Client>>> clients(kThreads);
  std::vector<std::vector<TicketPtr>> tickets(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    clients[t].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      clients[t].push_back(std::make_unique<Client>(
          1, static_cast<std::uint64_t>(1000 + t * kPerThread + i), weights));
    }
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int priority = i % 3;
        const double deadline_ms = (i % 3 == 2) ? 2.0 : 0.0;
        tickets[t].push_back(
            server.submit(clients[t][static_cast<std::size_t>(i)]->request(
                priority, deadline_ms)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.drain();

  int resolved = 0;
  for (const auto& per_thread : tickets) {
    for (const TicketPtr& ticket : per_thread) {
      // Bounded wait so a hang fails loudly instead of wedging the suite.
      Status status = Status::kInternalError;
      ASSERT_TRUE(ticket->wait_for_us(30'000'000, &status));
      EXPECT_TRUE(status == Status::kSuccess ||
                  status == Status::kDeadlineExceeded ||
                  status == Status::kRejected ||
                  status == Status::kShuttingDown)
          << "unexpected terminal status: " << to_string(status);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kThreads * kPerThread);

  // Every ticket is counted under exactly one terminal status.
  const Server::Counters c = server.counters();
  EXPECT_EQ(c.completed + c.rejected + c.expired + c.shutdown_failed +
                c.exec_failed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c.exec_failed, 0u);  // every=13/17 never exhausts 3 retries
}

}  // namespace
}  // namespace ucudnn

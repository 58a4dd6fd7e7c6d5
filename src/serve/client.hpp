// ServeClient: speaks the line-delimited JSON protocol over either transport.
//
// * In-process: constructed on a RequestDispatcher — request lines are
//   rendered, dispatched and parsed exactly as over the wire, with no socket.
//   Used by the quickstart --serve smoke path and the protocol tests.
// * TCP: Connect() to a running dfp_serve. Used by the server tests and the
//   bench_serving closed-loop load generator.
//
// Self-healing (DESIGN.md §15): with a RetryPolicy of max_attempts > 1, the
// idempotent read-path ops (Predict, PredictBatch, Health, Ready) retry on
// transport failure or a kUnavailable response, with exponential backoff +
// decorrelated jitter bounded by the policy deadline. Any transport failure,
// retried or not, drops the connection and the next call redials.
// Every request carries a fresh, monotonically increasing "id" that the server
// echoes; a response with a missing or different id is not this request's
// answer, so it counts as a transport failure and drops the connection too.
// A retry is refused the moment any byte of a response has been received
// (LineReader::buffered_bytes() != 0): resending after a partial response
// could double-execute. Mutating ops (Reload) never retry.
//
// Not thread-safe; use one client per thread (connections are cheap).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/socket.hpp"
#include "common/status.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace dfp::serve {

/// Retry policy for idempotent ops. Defaults are retry-off (max_attempts 1).
struct RetryPolicy {
    /// Total attempts, including the first; 1 disables retries.
    int max_attempts = 1;
    /// Decorrelated-jitter backoff: sleep_n = Uniform(initial, 3 * sleep_{n-1})
    /// capped at max_backoff_ms (AWS architecture-blog variant — spreads
    /// synchronized retry storms without the full-jitter cold-start penalty).
    double initial_backoff_ms = 2.0;
    double max_backoff_ms = 100.0;
    /// Wall-clock budget across ALL attempts and backoffs; < 0 = unbounded.
    /// Backoff sleeps are clamped so the final attempt fits the budget.
    double deadline_ms = -1.0;
    /// Seed for the jitter stream (deterministic retries in tests).
    std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
};

class ServeClient {
  public:
    /// In-process transport (dispatcher is borrowed).
    explicit ServeClient(RequestDispatcher& dispatcher,
                         RetryPolicy retry = RetryPolicy{})
        : dispatcher_(&dispatcher), retry_(retry), jitter_(retry.jitter_seed) {}

    /// TCP transport.
    static Result<ServeClient> Connect(const std::string& host,
                                       std::uint16_t port,
                                       RetryPolicy retry = RetryPolicy{});

    ServeClient(ServeClient&&) = default;
    ServeClient& operator=(ServeClient&&) = default;

    Result<Prediction> Predict(const std::vector<ItemId>& items,
                               double deadline_ms = -1.0);
    Result<std::vector<Prediction>> PredictBatch(
        const std::vector<std::vector<ItemId>>& batch);
    /// Current model version after a successful reload.
    Result<std::uint64_t> Reload(const std::string& path = "");
    Result<obs::JsonValue> Stats();
    Result<obs::JsonValue> Health();
    /// True iff the server has a model installed and is not draining.
    Result<bool> Ready();
    /// Prometheus text exposition, exactly as `GET /metrics` would serve it.
    Result<std::string> Metrics();
    /// Chrome trace-event document of the server's recent request traces.
    Result<obs::JsonValue> TraceDump();

    /// Raw line round-trip: the line is sent as given, without an id, and
    /// the server's response line is returned unparsed.
    Result<std::string> RoundTrip(const std::string& line);

  private:
    // Socket lives on the heap so ServeClient stays movable while the
    // LineReader keeps a stable reference to it.
    ServeClient(std::unique_ptr<Socket> socket, std::string host,
                std::uint16_t port, RetryPolicy retry)
        : socket_(std::move(socket)),
          reader_(std::make_unique<LineReader>(*socket_)),
          host_(std::move(host)),
          port_(port),
          retry_(retry),
          jitter_(retry.jitter_seed) {}

    /// One request/response exchange. Any transport failure drops the
    /// connection (the next exchange redials), so a late reply to this
    /// request can never be read as the answer to a later one.
    /// `*partial_response` (optional) is set when some bytes of a response
    /// had arrived before the failure.
    Result<std::string> Exchange(const std::string& line,
                                 bool* partial_response);

    /// Stamps the next request id onto `line` (a JSON object), then
    /// Exchange + parse + id check + "ok" check; protocol errors come back as
    /// the Status carried in the error response. One attempt, no retries;
    /// `*transport_failed` (optional) is set when the failure happened at the
    /// socket layer, or the reply did not echo the id, rather than as a
    /// well-formed error response.
    Result<obs::JsonValue> Call(const std::string& line,
                                bool* transport_failed = nullptr,
                                bool* partial_response = nullptr);

    /// Call with the retry loop — idempotent ops only.
    Result<obs::JsonValue> CallIdempotent(const std::string& line);

    /// Re-establishes the TCP transport (no-op in-process).
    Status Reconnect();
    /// Drops the TCP transport so the next exchange redials.
    void DropConnection();

    RequestDispatcher* dispatcher_ = nullptr;
    std::unique_ptr<Socket> socket_;
    std::unique_ptr<LineReader> reader_;
    std::string host_;
    std::uint16_t port_ = 0;
    RetryPolicy retry_;
    Rng jitter_;
    std::uint64_t next_id_ = 1;
};

}  // namespace dfp::serve

#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/budget.hpp"
#include "obs/metrics.hpp"

namespace dfp::serve {

namespace {

/// Maps an error response ({"ok":false,"error":"...","message":"..."}) back
/// to the Status it was rendered from.
Status StatusFromErrorResponse(const obs::JsonValue& response) {
    std::string code = "Internal";
    std::string message = "malformed error response";
    if (const obs::JsonValue* error = response.Find("error");
        error != nullptr && error->is_string()) {
        code = error->string();
    }
    if (const obs::JsonValue* msg = response.Find("message");
        msg != nullptr && msg->is_string()) {
        message = msg->string();
    }
    for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
        const auto status_code = static_cast<StatusCode>(c);
        if (code == StatusCodeName(status_code)) {
            return Status(status_code, std::move(message));
        }
    }
    return Status::Internal(code + ": " + message);
}

void AppendItems(std::ostringstream& out, const std::vector<ItemId>& items) {
    out << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out << ',';
        out << items[i];
    }
    out << ']';
}

}  // namespace

Result<ServeClient> ServeClient::Connect(const std::string& host,
                                         std::uint16_t port,
                                         RetryPolicy retry) {
    auto socket = TcpConnect(host, port);
    if (!socket.ok()) return socket.status();
    return ServeClient(std::make_unique<Socket>(std::move(*socket)), host,
                       port, retry);
}

Status ServeClient::Reconnect() {
    if (dispatcher_ != nullptr) return Status::Ok();  // nothing to re-dial
    auto socket = TcpConnect(host_, port_);
    if (!socket.ok()) return socket.status();
    socket_ = std::make_unique<Socket>(std::move(*socket));
    reader_ = std::make_unique<LineReader>(*socket_);
    obs::Registry::Get().GetCounter("dfp.serve.client.reconnects").Inc();
    return Status::Ok();
}

void ServeClient::DropConnection() {
    reader_.reset();
    socket_.reset();
}

Result<std::string> ServeClient::RoundTrip(const std::string& line) {
    return Exchange(line, nullptr);
}

Result<std::string> ServeClient::Exchange(const std::string& line,
                                          bool* partial_response) {
    if (dispatcher_ != nullptr) return dispatcher_->HandleLine(line);
    if (socket_ == nullptr) DFP_RETURN_NOT_OK(Reconnect());
    std::string response;
    Status st = socket_->SendAll(line + "\n");
    if (st.ok()) {
        auto got = reader_->ReadLine(&response);
        if (got.ok() && *got) return response;
        st = got.ok() ? Status::Unavailable("server closed the connection")
                      : got.status();
    }
    // Poison the connection: a late reply to this request may still arrive
    // on it, and the next call must not read that as its own answer.
    if (partial_response != nullptr) {
        *partial_response = reader_->buffered_bytes() > 0;
    }
    DropConnection();
    return st;
}

Result<obs::JsonValue> ServeClient::Call(const std::string& line,
                                         bool* transport_failed,
                                         bool* partial_response) {
    if (transport_failed != nullptr) *transport_failed = false;
    if (partial_response != nullptr) *partial_response = false;
    // Every request line built here is a JSON object: splice the id in
    // before its closing brace.
    const std::uint64_t id = next_id_++;
    std::string stamped = line;
    stamped.insert(stamped.size() - 1, ",\"id\":" + std::to_string(id));
    auto response = Exchange(stamped, partial_response);
    if (!response.ok()) {
        if (transport_failed != nullptr) *transport_failed = true;
        return response.status();
    }
    auto parsed = obs::ParseJson(*response);
    const obs::JsonValue* echoed = parsed.ok() ? parsed->Find("id") : nullptr;
    if (echoed == nullptr || !echoed->is_number() ||
        echoed->number() != static_cast<double>(id)) {
        // Not this request's answer (a stale reply, or a line the server
        // sent before it read the request): the stream is out of step.
        DropConnection();
        if (transport_failed != nullptr) *transport_failed = true;
        return Status::Unavailable("response does not answer request id " +
                                   std::to_string(id) + ": " + *response);
    }
    const obs::JsonValue* ok = parsed->Find("ok");
    if (ok == nullptr) return Status::Internal("response missing \"ok\"");
    if (!ok->boolean()) return StatusFromErrorResponse(*parsed);
    return parsed;
}

Result<obs::JsonValue> ServeClient::CallIdempotent(const std::string& line) {
    if (retry_.max_attempts <= 1) return Call(line);

    auto& metrics = obs::Registry::Get();
    DeadlineTimer deadline(retry_.deadline_ms);
    double backoff_ms = retry_.initial_backoff_ms;
    Result<obs::JsonValue> result = Status::Internal("retry loop never ran");
    for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
        // A failed exchange drops the connection, so this attempt redials;
        // a failed dial is this attempt's transport failure.
        bool transport_failed = false;
        bool partial_response = false;
        result = Call(line, &transport_failed, &partial_response);
        if (result.ok()) {
            if (attempt > 1) {
                metrics.GetCounter("dfp.serve.client.retry_success").Inc();
            }
            return result;
        }

        // Retry policy: a transport failure is retryable only while no byte
        // of the response has arrived — after that, the request may have
        // executed and a resend could double-execute. A well-formed
        // kUnavailable response (shed, draining, connection limit) is a
        // complete exchange and always retryable.
        const bool retryable =
            transport_failed
                ? !partial_response
                : result.status().code() == StatusCode::kUnavailable;
        if (!retryable) return result;  // a real error: report, don't mask
        if (attempt >= retry_.max_attempts) break;

        // Decorrelated jitter, clamped to the remaining deadline budget.
        double sleep_ms = std::min(
            retry_.max_backoff_ms,
            jitter_.Uniform(retry_.initial_backoff_ms, 3.0 * backoff_ms));
        backoff_ms = std::max(sleep_ms, retry_.initial_backoff_ms);
        if (retry_.deadline_ms >= 0.0) {
            const double remaining = deadline.remaining_ms();
            if (remaining <= 0.0) break;  // budget exhausted, report last error
            sleep_ms = std::min(sleep_ms, remaining);
        }
        metrics.GetCounter("dfp.serve.client.retries").Inc();
        if (sleep_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(sleep_ms));
        }
    }
    metrics.GetCounter("dfp.serve.client.retry_exhausted").Inc();
    return result;
}

Result<Prediction> ServeClient::Predict(const std::vector<ItemId>& items,
                                        double deadline_ms) {
    std::ostringstream line;
    line << "{\"op\":\"predict\",\"items\":";
    AppendItems(line, items);
    if (deadline_ms >= 0.0) {
        line << ",\"deadline_ms\":";
        obs::WriteJsonNumber(line, deadline_ms);
    }
    line << '}';
    auto response = CallIdempotent(line.str());
    if (!response.ok()) return response.status();
    const obs::JsonValue* label = response->Find("label");
    const obs::JsonValue* version = response->Find("version");
    if (label == nullptr || !label->is_number() || version == nullptr ||
        !version->is_number()) {
        return Status::Internal("predict response missing label/version");
    }
    return Prediction{static_cast<ClassLabel>(label->number()),
                      static_cast<std::uint64_t>(version->number())};
}

Result<std::vector<Prediction>> ServeClient::PredictBatch(
    const std::vector<std::vector<ItemId>>& batch) {
    std::ostringstream line;
    line << "{\"op\":\"predict_batch\",\"batch\":[";
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (i > 0) line << ',';
        AppendItems(line, batch[i]);
    }
    line << "]}";
    auto response = CallIdempotent(line.str());
    if (!response.ok()) return response.status();
    const obs::JsonValue* labels = response->Find("labels");
    const obs::JsonValue* version = response->Find("version");
    if (labels == nullptr || !labels->is_array() || version == nullptr ||
        !version->is_number()) {
        return Status::Internal("predict_batch response missing labels/version");
    }
    const auto model_version = static_cast<std::uint64_t>(version->number());
    std::vector<Prediction> predictions;
    predictions.reserve(labels->array().size());
    for (const obs::JsonValue& label : labels->array()) {
        if (!label.is_number()) {
            return Status::Internal("non-numeric label in response");
        }
        predictions.push_back(
            Prediction{static_cast<ClassLabel>(label.number()), model_version});
    }
    return predictions;
}

Result<std::uint64_t> ServeClient::Reload(const std::string& path) {
    std::ostringstream line;
    line << "{\"op\":\"reload\"";
    if (!path.empty()) {
        line << ",\"path\":";
        obs::WriteJsonString(line, path);
    }
    line << '}';
    auto response = Call(line.str());
    if (!response.ok()) return response.status();
    const obs::JsonValue* version = response->Find("version");
    if (version == nullptr || !version->is_number()) {
        return Status::Internal("reload response missing version");
    }
    return static_cast<std::uint64_t>(version->number());
}

Result<obs::JsonValue> ServeClient::Stats() {
    return Call("{\"op\":\"stats\"}");
}

Result<obs::JsonValue> ServeClient::Health() {
    return CallIdempotent("{\"op\":\"health\"}");
}

Result<bool> ServeClient::Ready() {
    auto response = CallIdempotent("{\"op\":\"ready\"}");
    if (!response.ok()) return response.status();
    const obs::JsonValue* ready = response->Find("ready");
    if (ready == nullptr || ready->kind() != obs::JsonValue::Kind::kBool) {
        return Status::Internal("ready response missing \"ready\"");
    }
    return ready->boolean();
}

Result<std::string> ServeClient::Metrics() {
    auto response = Call("{\"op\":\"metrics\"}");
    if (!response.ok()) return response.status();
    const obs::JsonValue* metrics = response->Find("metrics");
    if (metrics == nullptr || !metrics->is_string()) {
        return Status::Internal("metrics response missing \"metrics\"");
    }
    return metrics->string();
}

Result<obs::JsonValue> ServeClient::TraceDump() {
    auto response = Call("{\"op\":\"trace_dump\"}");
    if (!response.ok()) return response.status();
    const obs::JsonValue* trace = response->Find("trace");
    if (trace == nullptr || !trace->is_object()) {
        return Status::Internal("trace_dump response missing \"trace\"");
    }
    return *trace;
}

}  // namespace dfp::serve

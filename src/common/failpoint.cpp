#include "common/failpoint.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/string_util.hpp"
#include "obs/metrics.hpp"

namespace dfp {

namespace {

/// Set while at least one failpoint is armed. DFP_FAILPOINT's fast path.
std::atomic<bool> g_failpoints_enabled{false};

}  // namespace

const FailpointAction& FailpointAction::Sleep() const {
    if (delay_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
    }
    return *this;
}

std::uint64_t Fnv1a64(std::string_view bytes) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

void Failpoint::Arm(Mode mode, double param, FailpointKind kind,
                    double delay_ms, std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = mode;
    param_ = param;
    kind_ = kind;
    delay_ms_ = delay_ms;
    rng_.Seed(seed ^ Fnv1a64(name_));
    hits_.store(0, std::memory_order_relaxed);
    trips_.store(0, std::memory_order_relaxed);
}

void Failpoint::Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kOff;
}

FailpointAction Failpoint::Evaluate() {
    bool fire = false;
    FailpointAction action;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (mode_ == Mode::kOff) return {};
        const std::uint64_t hit =
            hits_.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
        switch (mode_) {
            case Mode::kOff: break;
            case Mode::kAlways: fire = true; break;
            case Mode::kProb: fire = rng_.Bernoulli(param_); break;
            case Mode::kNth:
                fire = hit == static_cast<std::uint64_t>(param_);
                break;
            case Mode::kEvery: {
                const auto n = static_cast<std::uint64_t>(param_);
                fire = n > 0 && hit % n == 0;
                break;
            }
        }
        if (fire) {
            action.kind = kind_;
            action.delay_ms = delay_ms_;
        }
    }
    if (fire) {
        trips_.fetch_add(1, std::memory_order_relaxed);
        obs::Registry::Get().GetCounter("dfp.failpoint." + name_).Inc();
        if (action.kind == FailpointKind::kAbort) {
            std::fprintf(stderr, "dfp: failpoint '%s' aborting (injected)\n",
                         name_.c_str());
            std::fflush(stderr);
            std::abort();
        }
    }
    return action;
}

FailpointRegistry& FailpointRegistry::Get() {
    static FailpointRegistry* registry = new FailpointRegistry();
    return *registry;
}

Failpoint& FailpointRegistry::GetOrCreate(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) {
        it = points_
                 .emplace(std::string(name),
                          std::make_unique<Failpoint>(std::string(name)))
                 .first;
    }
    return *it->second;
}

Failpoint* FailpointRegistry::Find(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = points_.find(name);
    return it == points_.end() ? nullptr : it->second.get();
}

std::vector<FailpointRegistry::Stats> FailpointRegistry::Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Stats> out;
    out.reserve(points_.size());
    for (const auto& [name, fp] : points_) {
        out.push_back(Stats{name, fp->hits(), fp->trips()});
    }
    return out;
}

std::uint64_t FailpointRegistry::TotalTrips() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& [name, fp] : points_) total += fp->trips();
    return total;
}

void FailpointRegistry::DisableAll() {
    g_failpoints_enabled.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, fp] : points_) fp->Disarm();
}

namespace {

struct ParsedPoint {
    std::string name;
    Failpoint::Mode mode = Failpoint::Mode::kOff;
    double param = 0.0;
    FailpointKind kind = FailpointKind::kError;
    double delay_ms = 0.0;
};

/// "prob(0.1)" -> {"prob", "0.1"}; "always" -> {"always", ""}.
Status SplitCall(std::string_view token, std::string* head, std::string* arg) {
    const std::size_t open = token.find('(');
    if (open == std::string_view::npos) {
        *head = std::string(token);
        arg->clear();
        return Status::Ok();
    }
    if (token.back() != ')') {
        return Status::InvalidArgument("failpoint spec: unbalanced '(' in '" +
                                       std::string(token) + "'");
    }
    *head = std::string(token.substr(0, open));
    *arg = std::string(token.substr(open + 1, token.size() - open - 2));
    return Status::Ok();
}

Status ParseNumber(const std::string& text, const std::string& where,
                   double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("failpoint spec: bad number '" + text +
                                       "' in " + where);
    }
    return Status::Ok();
}

Status ParseOnePoint(std::string_view entry, ParsedPoint* out) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
        return Status::InvalidArgument(
            "failpoint spec: expected 'name=mode[:kind]', got '" +
            std::string(entry) + "'");
    }
    out->name = std::string(Trim(entry.substr(0, eq)));
    std::string rest(Trim(entry.substr(eq + 1)));

    std::string mode_token = rest;
    std::string kind_token;
    // Split on the ':' between mode and kind; a ':' inside parentheses (none
    // of the grammar's args contain one) is not a concern.
    if (const std::size_t colon = rest.find(':'); colon != std::string::npos) {
        mode_token = std::string(Trim(std::string_view(rest).substr(0, colon)));
        kind_token = std::string(Trim(std::string_view(rest).substr(colon + 1)));
    }

    std::string head;
    std::string arg;
    DFP_RETURN_NOT_OK(SplitCall(mode_token, &head, &arg));
    if (head == "off") {
        out->mode = Failpoint::Mode::kOff;
    } else if (head == "always") {
        out->mode = Failpoint::Mode::kAlways;
    } else if (head == "prob") {
        out->mode = Failpoint::Mode::kProb;
        DFP_RETURN_NOT_OK(ParseNumber(arg, "prob()", &out->param));
        if (out->param < 0.0 || out->param > 1.0) {
            return Status::InvalidArgument(
                "failpoint spec: prob() needs a probability in [0,1]");
        }
    } else if (head == "nth" || head == "every") {
        out->mode =
            head == "nth" ? Failpoint::Mode::kNth : Failpoint::Mode::kEvery;
        DFP_RETURN_NOT_OK(ParseNumber(arg, head + "()", &out->param));
        if (out->param < 1.0) {
            return Status::InvalidArgument("failpoint spec: " + head +
                                           "() needs N >= 1");
        }
    } else {
        return Status::InvalidArgument("failpoint spec: unknown mode '" + head +
                                       "'");
    }

    if (!kind_token.empty()) {
        DFP_RETURN_NOT_OK(SplitCall(kind_token, &head, &arg));
        if (head == "error") {
            out->kind = FailpointKind::kError;
        } else if (head == "short") {
            out->kind = FailpointKind::kShortWrite;
        } else if (head == "eintr") {
            out->kind = FailpointKind::kEintr;
        } else if (head == "timeout") {
            out->kind = FailpointKind::kTimeout;
        } else if (head == "alloc") {
            out->kind = FailpointKind::kAllocFail;
        } else if (head == "abort") {
            out->kind = FailpointKind::kAbort;
        } else if (head == "delay") {
            out->kind = FailpointKind::kDelay;
            DFP_RETURN_NOT_OK(ParseNumber(arg, "delay()", &out->delay_ms));
            if (out->delay_ms < 0.0) {
                return Status::InvalidArgument(
                    "failpoint spec: delay() needs ms >= 0");
            }
        } else {
            return Status::InvalidArgument("failpoint spec: unknown kind '" +
                                           head + "'");
        }
    }
    return Status::Ok();
}

}  // namespace

Status FailpointRegistry::Configure(std::string_view spec, std::uint64_t seed) {
    // Parse everything before touching any state, so a malformed spec arms
    // nothing (and leaves a previously armed schedule intact).
    std::vector<ParsedPoint> parsed;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(';', begin);
        if (end == std::string_view::npos) end = spec.size();
        const std::string entry(Trim(spec.substr(begin, end - begin)));
        begin = end + 1;
        if (entry.empty()) continue;
        ParsedPoint point;
        DFP_RETURN_NOT_OK(ParseOnePoint(entry, &point));
        parsed.push_back(std::move(point));
    }

    DisableAll();
    bool any_armed = false;
    for (const ParsedPoint& point : parsed) {
        Failpoint& fp = GetOrCreate(point.name);
        if (point.mode == Failpoint::Mode::kOff) continue;
        fp.Arm(point.mode, point.param, point.kind, point.delay_ms, seed);
        any_armed = true;
    }
    g_failpoints_enabled.store(any_armed, std::memory_order_release);
    return Status::Ok();
}

bool FailpointsEnabled() {
    return g_failpoints_enabled.load(std::memory_order_relaxed);
}

FailpointAction EvaluateFailpoint(const char* name) {
    return FailpointRegistry::Get().GetOrCreate(name).Evaluate();
}

Status ConfigureFailpointsFromEnv() {
    const char* spec = std::getenv("DFP_FAILPOINTS");
    if (spec == nullptr || *spec == '\0') return Status::Ok();
    std::uint64_t seed = 1;
    if (const char* seed_env = std::getenv("DFP_FAILPOINT_SEED");
        seed_env != nullptr && *seed_env != '\0') {
        seed = std::strtoull(seed_env, nullptr, 10);
    }
    return FailpointRegistry::Get().Configure(spec, seed);
}

}  // namespace dfp

#include "sweepd/protocol.hh"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "common/json.hh"

namespace qcc {
namespace sweepd {

namespace {

const char *const kLogLevelNames[] = {"quiet", "info", "debug"};

/** Append `doc` (multi-line) with its trailing newlines trimmed. */
void
appendTrimmed(std::string &out, std::string doc)
{
    while (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    out += doc;
}

/**
 * A config member, validated: exactly the five fields, each with
 * its type and range (an unknown or duplicated key leaves one of the
 * five missing).
 */
WorkerConfig
decodeWorkerConfig(const JsonValue &v)
{
    if (!v.isObject() || v.members.size() != 5)
        throw SpecError("(request)",
                        "config must be an object of 5 members");
    const auto bad = [](const char *field) {
        return SpecError("(request)",
                         std::string("bad config member: ") + field);
    };
    WorkerConfig config;
    const JsonValue *dir = v.find("store_dir");
    if (!dir || !dir->isString())
        throw bad("store_dir");
    config.storeDir = dir->text;
    const JsonValue *store = v.find("store");
    if (!store || !store->isBool())
        throw bad("store");
    config.storeEnabled = store->boolean;
    const JsonValue *trace = v.find("trace");
    if (!trace || !trace->isBool())
        throw bad("trace");
    config.trace = trace->boolean;
    const JsonValue *log = v.find("log");
    const auto *level = std::end(kLogLevelNames);
    if (log && log->isString())
        level = std::find(std::begin(kLogLevelNames),
                          std::end(kLogLevelNames),
                          std::string_view(log->text));
    if (level == std::end(kLogLevelNames))
        throw bad("log");
    config.logLevel = LogLevel(level - std::begin(kLogLevelNames));
    const JsonValue *width = v.find("job_width");
    uint64_t lanes = 0;
    if (!width || !width->asUint64(lanes) || lanes > 65536)
        throw bad("job_width");
    config.jobWidth = unsigned(lanes);
    return config;
}

} // namespace

std::string
encodeJobRequest(const JobRequest &request)
{
    std::string out = "{\"spec\": ";
    appendTrimmed(out, request.spec.json());
    if (const auto &c = request.config) {
        out += ",\n\"config\": {\"store_dir\": \"" +
               jsonEscape(c->storeDir) + "\", \"store\": " +
               (c->storeEnabled ? "true" : "false") +
               ", \"trace\": " + (c->trace ? "true" : "false") +
               ", \"log\": \"" + kLogLevelNames[int(c->logLevel)] +
               "\", \"job_width\": " + std::to_string(c->jobWidth) +
               "}";
    }
    out += "}\n";
    return out;
}

JobRequest
decodeJobRequest(const std::string &payload)
{
    const JsonValue doc = JsonValue::parse(payload);
    if (!doc.isObject())
        throw SpecError("(request)", "expected a request object");
    JobRequest request;
    bool haveSpec = false;
    for (const auto &[key, v] : doc.members) {
        if (key == "spec") {
            if (!v.isObject())
                throw SpecError("(request)",
                                "spec must be an object");
            for (const auto &[field, fv] : v.members)
                applySpecField(request.spec, field, fv);
            haveSpec = true;
        } else if (key == "config") {
            request.config = decodeWorkerConfig(v);
        } else {
            throw SpecError("(request)",
                            "unknown request member: " + key);
        }
    }
    if (!haveSpec)
        throw SpecError("(request)", "request carries no spec");
    return request;
}

std::string
encodeDoneReply(const ExperimentResult &result,
                const std::string &trace_events,
                const std::string &metrics)
{
    std::string out = "{\"status\": \"done\",\n\"result\": ";
    ExperimentResult::JsonOptions jo;
    jo.timings = true; // the store drops them when configured to
    jo.trace = false;
    appendTrimmed(out, result.json(jo));
    if (!trace_events.empty()) {
        out += ",\n\"trace\": ";
        out += trace_events;
    }
    if (!metrics.empty()) {
        out += ",\n\"metrics\": ";
        appendTrimmed(out, metrics);
    }
    out += "}\n";
    return out;
}

std::string
encodeFailedReply(const std::string &error, bool fast_fail)
{
    std::string out = "{\"status\": \"failed\", \"fast_fail\": ";
    out += fast_fail ? "true" : "false";
    out += ", \"error\": \"" + jsonEscape(error) + "\"}\n";
    return out;
}

bool
decodeReply(const std::string &payload, WorkerReply &out)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(payload);
    } catch (const JsonError &) {
        return false;
    }
    if (!doc.isObject())
        return false;
    const JsonValue *status = doc.find("status");
    if (!status || !status->isString())
        return false;

    WorkerReply reply;
    if (status->text == "done") {
        reply.done = true;
        const JsonValue *result = doc.find("result");
        if (!result ||
            !ExperimentResult::fromJsonDom(*result, reply.result))
            return false;
        if (const JsonValue *trace = doc.find("trace"))
            if (trace->isArray())
                reply.trace = *trace;
        if (const JsonValue *metrics = doc.find("metrics"))
            if (metrics->isObject())
                reply.metrics = *metrics;
    } else if (status->text == "failed") {
        const JsonValue *error = doc.find("error");
        if (!error || !error->isString())
            return false;
        reply.error = error->text;
        if (const JsonValue *ff = doc.find("fast_fail")) {
            if (!ff->isBool())
                return false;
            reply.fastFail = ff->boolean;
        }
    } else {
        return false;
    }
    out = std::move(reply);
    return true;
}

} // namespace sweepd
} // namespace qcc

#include "telemetry/telemetry.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/check.h"

namespace ppssd::telemetry {

namespace {

struct SinkName {
  const char* name;
  Sink sink;
};

constexpr std::array<SinkName, 6> kSinkNames{{
    {"trace", kSinkTrace},
    {"metrics", kSinkMetrics},
    {"timeseries", kSinkTimeseries},
    {"attrib", kSinkAttrib},
    {"snapshot", kSinkSnapshot},
    {"flight", kSinkFlight},
}};

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// A sink whose file cannot be opened degrades to off rather than failing
// the run, but says so.
void warn_cannot_open(const std::string& path) {
  std::fprintf(stderr, "ppssd: cannot open %s\n", path.c_str());
}

std::string observe_dir() {
  const char* dir = std::getenv("PPSSD_OBSERVE_DIR");
  return dir != nullptr && *dir != '\0' ? dir : "ppssd_observe";
}

}  // namespace

std::uint32_t parse_sinks(std::string_view list) {
  std::uint32_t sinks = 0;
  while (!list.empty()) {
    const auto comma = list.find(',');
    const std::string_view tok = trim(list.substr(0, comma));
    list = comma == std::string_view::npos ? std::string_view{}
                                           : list.substr(comma + 1);
    if (tok.empty()) continue;
    const SinkName* found = nullptr;
    for (const SinkName& s : kSinkNames) {
      if (tok == s.name) found = &s;
    }
    if (found == nullptr) {
      std::string valid;
      for (const SinkName& s : kSinkNames) {
        if (!valid.empty()) valid += ", ";
        valid += s.name;
      }
      PPSSD_CHECK_MSG(false, ("PPSSD_OBSERVE: unknown sink '" +
                              std::string(tok) + "'; valid sinks: " + valid)
                                 .c_str());
    }
    sinks |= found->sink;
  }
  return sinks;
}

std::uint32_t sinks_from_env() {
  const char* v = std::getenv("PPSSD_OBSERVE");
  return v == nullptr ? 0 : parse_sinks(v);
}

TelemetryOptions TelemetryOptions::for_sinks(std::uint32_t sinks,
                                             const std::string& dir,
                                             const std::string& stem) {
  const auto path = [&](Sink sink, const char* ext) {
    return (sinks & sink) != 0 ? dir + "/" + stem + ext : std::string();
  };
  TelemetryOptions opts;
  opts.trace_path = path(kSinkTrace, ".trace.json");
  opts.metrics_path = path(kSinkMetrics, ".metrics.csv");
  opts.timeseries_path = path(kSinkTimeseries, ".timeseries.csv");
  opts.attribution_path = path(kSinkAttrib, ".ledger.bin");
  opts.snapshot_path = path(kSinkSnapshot, ".snap.bin");
  if (!opts.snapshot_path.empty()) opts.snapshot_every_ns = kSnapshotEveryNs;
  opts.flight_path = path(kSinkFlight, ".flight.bin");
  if (!opts.flight_path.empty()) opts.flight_capacity = kFlightEvents;
  return opts;
}

TelemetryOptions TelemetryOptions::from_env(const std::string& stem) {
  return for_sinks(sinks_from_env(), observe_dir(), stem);
}

Telemetry::Telemetry() = default;

Telemetry::Telemetry(const TelemetryOptions& opts)
    : opts_(opts), instrumented_(opts.instrumented()) {
  if (!opts_.trace_path.empty()) {
    trace_ = TraceLog::open_file(opts_.trace_path, TraceLog::Options{});
    if (trace_ == nullptr) warn_cannot_open(opts_.trace_path);
  }
  if (!opts_.timeseries_path.empty()) {
    timeseries_file_.open(opts_.timeseries_path);
    if (timeseries_file_) {
      TimeSeriesSampler::Options so;
      so.every_requests = opts_.sample_every_requests;
      sampler_ = std::make_unique<TimeSeriesSampler>(registry_,
                                                     timeseries_file_, so);
    } else {
      warn_cannot_open(opts_.timeseries_path);
    }
  }
  if (opts_.attribution || !opts_.attribution_path.empty()) {
    attribution_ = std::make_unique<attribution::AttributionLedger>();
    if (!opts_.attribution_path.empty() &&
        !attribution_->open_dump(opts_.attribution_path)) {
      warn_cannot_open(opts_.attribution_path);
    }
  }
  if (opts_.snapshot_every_ns > 0 && !snapshots_.open(opts_.snapshot_path)) {
    warn_cannot_open(opts_.snapshot_path);
  }
  if (opts_.flight_capacity > 0) {
    flight_ = std::make_unique<introspect::FlightRecorder>(
        opts_.flight_capacity);
  }
}

Telemetry::~Telemetry() {
  bind_device(nullptr);
  finish(0);
}

std::unique_ptr<Telemetry> Telemetry::from_env(const std::string& stem) {
  const TelemetryOptions opts = TelemetryOptions::from_env(stem);
  if (!opts.any()) return nullptr;
  const std::string dir = observe_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  PPSSD_CHECK_MSG(std::filesystem::is_directory(dir, ec),
                  ("PPSSD_OBSERVE_DIR: cannot create directory '" + dir +
                   "'")
                      .c_str());
  return std::make_unique<Telemetry>(opts);
}

void Telemetry::bind_device(const introspect::FrameSource* device) {
  device_ = device;
  next_frame_ = kNoTime;
  if (device == nullptr) {
    if (hook_installed_) {
      detail::set_check_failure_hook(nullptr, nullptr);
      hook_installed_ = false;
    }
    return;
  }
  if (snapshots_.is_open()) {
    snapshots_.begin_stream(device->stream_info());
    next_frame_ = opts_.snapshot_every_ns;
  }
  if (snapshots_.is_open() || flight_ != nullptr) {
    detail::set_check_failure_hook(&Telemetry::on_check_failure, this);
    hook_installed_ = true;
  }
}

void Telemetry::write_frame(SimTime now) {
  device_->read_frame(blocks_, planes_, snapshots_.sink());
  snapshots_.write_frame(now, blocks_, planes_);
  last_frame_ = now;
  next_frame_ = now + opts_.snapshot_every_ns;
}

void Telemetry::finish(SimTime end) {
  if (finished_) return;
  finished_ = true;
  if (sampler_) sampler_->finish(end);
  if (!opts_.metrics_path.empty()) {
    std::ofstream out(opts_.metrics_path);
    if (!out) {
      warn_cannot_open(opts_.metrics_path);
    } else {
      const std::string& p = opts_.metrics_path;
      const bool json = p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
      if (json) {
        registry_.write_json(out);
      } else {
        registry_.write_csv(out);
      }
    }
  }
  if (attribution_) attribution_->close_dump();
  if (trace_) trace_->close();
  if (device_ != nullptr && snapshots_.is_open()) {
    write_frame(end);
    snapshots_.flush();
  }
  if (flight_ != nullptr && flight_->recorded() > 0 &&
      !flight_->dump(opts_.flight_path)) {
    std::fprintf(stderr, "ppssd: cannot write flight dump %s\n",
                 opts_.flight_path.c_str());
  }
  bind_device(nullptr);
}

void Telemetry::on_check_failure(void* ctx) {
  // Last-gasp path, called from a failing PPSSD_CHECK: do not walk
  // device state (the invariant just proved it inconsistent) — persist
  // what is already in memory. Per-frame flushes mean the stream on
  // disk holds every completed frame; only the flight ring needs
  // writing out.
  auto* self = static_cast<Telemetry*>(ctx);
  if (self->flight_ != nullptr) {
    introspect::FlightEvent ev;
    ev.time = self->last_frame_;
    ev.kind = introspect::FlightEventKind::kCheckFailure;
    self->flight_->record(ev);
    if (self->flight_->dump(self->opts_.flight_path)) {
      std::fprintf(stderr, "ppssd: flight recorder dumped to %s (%llu events)\n",
                   self->opts_.flight_path.c_str(),
                   static_cast<unsigned long long>(self->flight_->recorded()));
    }
  }
  if (self->snapshots_.is_open()) self->snapshots_.flush();
}

}  // namespace ppssd::telemetry

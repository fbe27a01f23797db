#include "obs/reporter.h"

#include <chrono>
#include <cstdio>

#include "obs/exporters.h"

namespace evo::obs {

void FileSink::Report(const MetricsRegistry& registry) {
  bool json = path_.size() >= 5 &&
              path_.compare(path_.size() - 5, 5, ".json") == 0;
  std::string text = json ? ToJson(registry) : ToPrometheusText(registry);
  // Write to a temp file then rename so scrapers never see a torn file.
  std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::rename(tmp.c_str(), path_.c_str());
}

MetricsReporter::MetricsReporter(MetricsRegistry* registry, Options options)
    : registry_(registry), options_(options) {}

MetricsReporter::~MetricsReporter() { Stop(); }

void MetricsReporter::SetPreCollect(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  pre_collect_ = std::move(fn);
}

void MetricsReporter::AddSink(std::unique_ptr<ReportSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

void MetricsReporter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  if (options_.report_on_stop) ReportOnce();
}

bool MetricsReporter::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void MetricsReporter::ReportOnce() {
  // Snapshot the hook and sink list so reports never run under the lock
  // (sinks may be slow; pre-collect may touch the registry).
  std::function<void()> pre;
  std::vector<ReportSink*> sinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pre = pre_collect_;
    sinks.reserve(sinks_.size());
    for (const auto& s : sinks_) sinks.push_back(s.get());
  }
  if (pre) pre();
  for (ReportSink* sink : sinks) sink->Report(*registry_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_;
  }
}

uint64_t MetricsReporter::TicksCompleted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

void MetricsReporter::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [&] { return stop_requested_; });
      if (stop_requested_) return;
    }
    ReportOnce();
  }
}

}  // namespace evo::obs

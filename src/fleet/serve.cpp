#include "fleet/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_set>

namespace cmdsmc::fleet {

namespace {

std::string reject_line(const std::string& request, const std::string& error) {
  return "{\"event\": \"reject\", \"request\": \"" +
         cli::json_escape(request) + "\", \"error\": \"" +
         cli::json_escape(error) + "\"}";
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

// Submits every request line of `text`; rejects are streamed in-band
// through the scheduler's lock so they never interleave with the record
// lines the workers emit concurrently.
void submit_text(FleetScheduler& fleet, const std::string& text,
                 const std::vector<cli::KeyValue>& defaults) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      fleet.submit(parse_job_line(line, defaults));
    } catch (const std::exception& e) {
      fleet.emit_line(reject_line(line, e.what()));
    }
  }
}

// One spool scan: processes every *.job file (sorted, so the intake order
// is deterministic), renaming each to <name>.done.  Returns files seen.
//
// Producers must move job files into the spool atomically (write to a
// temporary name — anything not ending in .job — then rename): a file is
// read the moment a scan sees it, so a non-atomic write can be caught
// half-written.  `submitted` holds files whose .done rename failed; they
// were already submitted once and must not be resubmitted every poll.
std::size_t scan_spool(FleetScheduler& fleet, const std::string& dir,
                       const std::vector<cli::KeyValue>& defaults,
                       std::unordered_set<std::string>& submitted) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".job") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    if (submitted.count(file.string()) > 0) continue;
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    submit_text(fleet, text.str(), defaults);
    fs::path done = file;
    done += ".done";
    fs::rename(file, done, ec);
    if (ec) {
      // The file stays behind but its jobs are in flight; remember it so
      // the next poll does not resubmit (and re-run) the same work.
      std::fprintf(stderr, "serve: cannot retire %s: %s\n",
                   file.c_str(), ec.message().c_str());
      submitted.insert(file.string());
    } else {
      submitted.erase(file.string());
    }
  }
  return files.size();
}

}  // namespace

bool apply_serve_option(ServeOptions& options, const std::string& key,
                        const std::string& value) {
  if (key == "spool") {
    if (value.empty()) throw cli::ArgError("spool: empty path");
    options.spool_dir = value;
    return true;
  }
  if (key == "poll_ms") {
    const int n = cli::parse_int(key, value);
    if (n < 1) throw cli::ArgError(key + ": must be >= 1");
    options.poll_ms = n;
    return true;
  }
  if (key == "once") {
    options.once = cli::parse_bool(key, value);
    return true;
  }
  return false;
}

std::vector<FleetJob> parse_job_line(
    const std::string& line, const std::vector<cli::KeyValue>& defaults) {
  const std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) throw cli::ArgError("empty job request");
  SweepRequest request;
  request.scenario = tokens[0];
  request.fixed = defaults;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (is_sweep_token(tokens[i])) {
      request.axes.push_back(parse_sweep_axis(tokens[i]));
    } else {
      const std::vector<cli::KeyValue> kv =
          cli::parse_key_values({tokens[i]});
      request.fixed.push_back(kv[0]);
    }
  }
  return expand_sweep(request);
}

int run_serve(ServeOptions options, std::istream& in, std::ostream& out) {
  options.fleet.stream = &out;
  FleetScheduler fleet(options.fleet);
  FleetMeta meta;
  meta.scenario = "serve";
  meta.fleet_threads = fleet.options().fleet_threads;
  meta.job_threads = fleet.options().job_threads;
  fleet.set_meta(meta);

  if (options.spool_dir.empty()) {
    // stdin mode: one request per line until EOF.
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      try {
        fleet.submit(parse_job_line(line, options.defaults));
      } catch (const std::exception& e) {
        fleet.emit_line(reject_line(line, e.what()));
      }
    }
  } else {
    // Spool mode: poll for *.job files; `once` drains a single scan.
    std::unordered_set<std::string> submitted;
    while (true) {
      scan_spool(fleet, options.spool_dir, options.defaults, submitted);
      if (options.once) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }

  const FleetSummary summary = fleet.finish();
  std::fprintf(stderr,
               "serve: %zu jobs (%zu run, %zu cached, %zu failed) in %.2fs; "
               "aggregate %s\n",
               summary.jobs, summary.completed, summary.cached, summary.failed,
               summary.elapsed_seconds, summary.aggregate_path.c_str());
  return 0;
}

}  // namespace cmdsmc::fleet

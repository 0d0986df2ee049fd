// Offline query tool for the per-hop trace records a run exports via
// `livenet_run --trace-sample F --metrics-out DIR` (telemetry.csv).
//
//   trace_query FILE              summary: records, traces, event mix
//   trace_query FILE --list       one line per trace (hops, span, fate)
//   trace_query FILE --trace N    full path of trace N with per-hop
//                                 latency breakdown
//   trace_query FILE --demo      path of the longest trace (exit 1 if
//                                 the file holds no records)
//   trace_query FILE --metrics [PREFIX]
//                                 FILE is a metrics.json; prints every
//                                 counter/gauge/latency whose name
//                                 starts with PREFIX (default "brain."
//                                 — the routing-cycle phase breakdown:
//                                 graph build / solve / install, plus
//                                 the brain.threads fan-out gauge)
//
// Records are sorted by timestamp before reconstruction: the exporter
// writes link_dequeue rows pre-dated with the arrival time at the
// moment of the send, so file order is not event order.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Row {
  std::uint64_t trace_id = 0;
  long long t_us = 0;
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  int node = -1;
  int peer = -1;
  std::string event;
  std::string reason;
};

bool parse_row(const std::string& line, Row* r) {
  std::istringstream ss(line);
  std::string f[8];
  for (int i = 0; i < 8; ++i) {
    if (!std::getline(ss, f[i], ',')) return false;
  }
  r->trace_id = std::strtoull(f[0].c_str(), nullptr, 10);
  r->t_us = std::atoll(f[1].c_str());
  r->stream = std::strtoull(f[2].c_str(), nullptr, 10);
  r->seq = std::strtoull(f[3].c_str(), nullptr, 10);
  r->node = std::atoi(f[4].c_str());
  r->peer = std::atoi(f[5].c_str());
  r->event = f[6];
  r->reason = f[7];
  return r->trace_id != 0;
}

std::vector<Row> load(const std::string& path, bool* ok) {
  std::vector<Row> rows;
  std::ifstream is(path);
  *ok = static_cast<bool>(is);
  if (!*ok) return rows;
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    Row r;
    if (parse_row(line, &r)) rows.push_back(std::move(r));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.trace_id != b.trace_id ? a.trace_id < b.trace_id
                                    : a.t_us < b.t_us;
  });
  return rows;
}

/// Contiguous slice of one trace inside the sorted row list.
struct Trace {
  std::uint64_t id = 0;
  const Row* begin = nullptr;
  const Row* end = nullptr;
  std::size_t hops() const { return static_cast<std::size_t>(end - begin); }
  const Row* find_drop() const {
    for (const Row* r = begin; r != end; ++r) {
      if (r->event == "drop") return r;
    }
    return nullptr;
  }
};

std::vector<Trace> group(const std::vector<Row>& rows) {
  std::vector<Trace> out;
  for (std::size_t i = 0; i < rows.size();) {
    std::size_t j = i;
    while (j < rows.size() && rows[j].trace_id == rows[i].trace_id) ++j;
    out.push_back(Trace{rows[i].trace_id, rows.data() + i, rows.data() + j});
    i = j;
  }
  return out;
}

void print_path(const Trace& t) {
  std::printf("trace %llu  stream %llu seq %llu  (%zu hops)\n",
              static_cast<unsigned long long>(t.id),
              static_cast<unsigned long long>(t.begin->stream),
              static_cast<unsigned long long>(t.begin->seq), t.hops());
  long long prev = t.begin->t_us;
  for (const Row* r = t.begin; r != t.end; ++r) {
    std::printf("  t=%-10lld +%-8.3fms  %-14s node %-4d", r->t_us,
                static_cast<double>(r->t_us - prev) / 1000.0,
                r->event.c_str(), r->node);
    if (r->peer >= 0) std::printf(" -> %-4d", r->peer);
    if (r->reason != "none") std::printf("  [%s]", r->reason.c_str());
    std::printf("\n");
    prev = r->t_us;
  }
  const Row* drop = t.find_drop();
  std::printf("  end-to-end: %.3f ms, %s\n",
              static_cast<double>((t.end - 1)->t_us - t.begin->t_us) / 1000.0,
              drop != nullptr ? ("dropped: " + drop->reason).c_str()
                              : "delivered");
}

/// metrics.json reader. The exporter writes one metric per line
/// (`    "name": value` / `    "name": {summary}`) under three section
/// keys, so a line scanner is a complete parser for this format —
/// no JSON library in the image, none needed.
int show_metrics(const std::string& path, const std::string& prefix) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::string line, section;
  std::size_t shown = 0;
  while (std::getline(is, line)) {
    const std::size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    if (name == "counters" || name == "gauges" || name == "latencies") {
      section = name;
      continue;
    }
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    std::size_t v = line.find(':', q2);
    if (v == std::string::npos) continue;
    ++v;
    while (v < line.size() && line[v] == ' ') ++v;
    std::string value = line.substr(v);
    while (!value.empty() && (value.back() == ',' || value.back() == ' ')) {
      value.pop_back();
    }
    std::printf("%-10s %-36s %s\n", section.c_str(), name.c_str(),
                value.c_str());
    ++shown;
  }
  if (shown == 0) {
    std::fprintf(stderr, "no metrics matching \"%s*\" in %s\n",
                 prefix.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file, mode = "summary", metrics_prefix = "brain.";
  std::uint64_t want_id = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list" || arg == "--demo") {
      mode = arg.substr(2);
    } else if (arg == "--trace" && i + 1 < argc) {
      mode = "trace";
      want_id = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--metrics") {
      mode = "metrics";
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_prefix = argv[++i];
    } else if (file.empty() && arg[0] != '-') {
      file = arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s FILE [--list | --trace N | --demo |"
                   " --metrics [PREFIX]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (file.empty()) {
    std::fprintf(stderr,
                 "usage: %s FILE [--list | --trace N | --demo |"
                 " --metrics [PREFIX]]\n",
                 argv[0]);
    return 2;
  }
  if (mode == "metrics") return show_metrics(file, metrics_prefix);

  bool ok = false;
  const std::vector<Row> rows = load(file, &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 2;
  }
  const std::vector<Trace> traces = group(rows);

  if (mode == "summary") {
    std::map<std::string, std::size_t> events;
    std::size_t dropped = 0;
    for (const Row& r : rows) ++events[r.event];
    for (const Trace& t : traces) {
      if (t.find_drop() != nullptr) ++dropped;
    }
    std::printf("%zu records, %zu traces (%zu with a drop)\n", rows.size(),
                traces.size(), dropped);
    for (const auto& [ev, n] : events) {
      std::printf("  %-14s %8zu\n", ev.c_str(), n);
    }
    return 0;
  }
  if (mode == "list") {
    for (const Trace& t : traces) {
      const Row* drop = t.find_drop();
      std::printf("trace %-8llu stream %-4llu seq %-8llu %3zu hops  "
                  "%9.3f ms  %s\n",
                  static_cast<unsigned long long>(t.id),
                  static_cast<unsigned long long>(t.begin->stream),
                  static_cast<unsigned long long>(t.begin->seq), t.hops(),
                  static_cast<double>((t.end - 1)->t_us - t.begin->t_us) /
                      1000.0,
                  drop != nullptr ? drop->reason.c_str() : "delivered");
    }
    return 0;
  }
  if (mode == "trace") {
    for (const Trace& t : traces) {
      if (t.id == want_id) {
        print_path(t);
        return 0;
      }
    }
    std::fprintf(stderr, "trace %llu not found\n",
                 static_cast<unsigned long long>(want_id));
    return 1;
  }
  // --demo: the longest path in the file.
  const Trace* best = nullptr;
  for (const Trace& t : traces) {
    if (best == nullptr || t.hops() > best->hops()) best = &t;
  }
  if (best == nullptr) {
    std::fprintf(stderr, "no trace records in %s\n", file.c_str());
    return 1;
  }
  print_path(*best);
  return 0;
}

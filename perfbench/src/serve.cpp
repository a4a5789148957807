#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "measure.h"
#include "replay.h"
#include "service/client.h"
#include "service/journal.h"
#include "sim/report_io.h"
#include "spans.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/trace_io.h"

namespace perfbench {

using namespace coda;

// ------------------------------------------------------------ LoadBook

void LoadBook::sent(uint64_t cid, Kind kind, double due_s, double sent_s,
                    uint64_t job_id, int shard) {
  pending_[cid] = Pending{kind, due_s, job_id, shard};
  attempted_[index(kind)] += 1;
  gen_lag_ms_.push_back((sent_s - due_s) * 1e3);
  last_sent_s_ = std::max(last_sent_s_, sent_s);
}

void LoadBook::fail(Kind k, double due_s) {
  failed_[index(k)] += 1;
  latency_ms_[index(k)].emplace_back(due_s,
                                     std::numeric_limits<double>::infinity());
}

std::vector<double> LoadBook::latencies_ms(Kind k) const {
  std::vector<double> out;
  for (const auto& [due, ms] : latency_ms_[index(k)]) {
    out.push_back(ms);
  }
  return out;
}

double windowed_quantile(const std::vector<std::pair<double, double>>& due_ms,
                         double window_s, double q) {
  if (due_ms.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double start = due_ms.front().first;
  for (const auto& [due, ms] : due_ms) {
    start = std::min(start, due);
  }
  std::vector<std::vector<double>> windows;
  for (const auto& [due, ms] : due_ms) {
    const size_t w = static_cast<size_t>((due - start) / window_s);
    if (windows.size() <= w) {
      windows.resize(w + 1);
    }
    windows[w].push_back(ms);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (!w.empty()) {
      per_window.push_back(quantile(std::move(w), q));
    }
  }
  return median(per_window);
}

bool LoadBook::reply(uint64_t cid, double recv_s,
                     const service::Response& resp) {
  auto it = pending_.find(cid);
  if (it == pending_.end()) {
    return false;
  }
  const Pending p = it->second;
  pending_.erase(it);
  bool ok = resp.ok();
  if (ok && p.kind == Kind::kStatus) {
    ok = resp.payload.rfind(util::strfmt("id=%llu ",
                                         static_cast<unsigned long long>(
                                             p.job_id)),
                            0) == 0;
  }
  if (!ok) {
    fail(p.kind, p.due_s);
    return true;
  }
  latency_ms_[index(p.kind)].emplace_back(p.due_s, (recv_s - p.due_s) * 1e3);
  if (p.kind == Kind::kSubmit) {
    acked_.emplace_back(p.job_id, p.shard);
  }
  return true;
}

void LoadBook::expire() {
  for (const auto& [cid, p] : pending_) {
    fail(p.kind, p.due_s);
  }
  pending_.clear();
}

// ------------------------------------------------------------ generator

namespace {

constexpr int kShards = 2;
constexpr int kConnections = 2;
// Latency percentiles are taken per window of this many seconds (by due
// time) and the median over windows is reported.
constexpr double kLatencyWindowS = 1.0;
// Probe search: SUBMIT-only probes of kProbeS seconds from kProbeStartRate
// SUBMITs/s, rising by kProbeStep (falling by half) until the p99 limit is
// both met and missed, then bisected until the pass and miss rates are
// within kProbeResolution; at most kMaxProbes probes.
constexpr double kProbeS = 0.5;
constexpr double kProbeStartRate = 10000.0;
constexpr double kProbeStep = 1.25;
constexpr double kProbeResolution = 1.06;
constexpr double kP99LimitMs = 10.0;
constexpr int kMaxProbes = 10;

const Clock::time_point kEpoch = Clock::now();

double now_s() { return seconds_between(kEpoch, Clock::now()); }

// One nonblocking loopback connection with its own framing.
struct Conn {
  int fd = -1;
  service::LineReader reader{1 << 20};
  std::string out;
  size_t off = 0;
  bool dead = false;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

bool connect_nonblocking(Conn* c, int port) {
  c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return false;
  }
  int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(c->fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

class Generator {
 public:
  Generator(int port, int connections, std::string* error) {
    for (int i = 0; i < connections; ++i) {
      conns_.push_back(std::make_unique<Conn>());
      if (!connect_nonblocking(conns_.back().get(), port)) {
        *error = util::strfmt("connect 127.0.0.1:%d failed", port);
        return;
      }
    }
  }

  void queue(size_t conn, const std::string& line) {
    conns_[conn % conns_.size()]->out += line;
  }

  // Writes queued bytes, then waits up to `timeout_s` for replies and feeds
  // every complete reply line to `book`.
  void pump(LoadBook* book, double timeout_s) {
    std::vector<pollfd> fds;
    for (auto& c : conns_) {
      flush(*c);
      short events = POLLIN;
      if (c->off < c->out.size()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{c->fd, events, 0});
    }
    timespec ts{};
    timeout_s = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
    const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n <= 0) {
      return;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_all(*conns_[i], book);
      }
    }
  }

  bool dead() const {
    for (const auto& c : conns_) {
      if (c->dead) {
        return true;
      }
    }
    return false;
  }

 private:
  void flush(Conn& c) {
    while (c.off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.off,
                               c.out.size() - c.off, MSG_NOSIGNAL);
      if (n > 0) {
        c.off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      c.dead = true;
      break;
    }
    if (c.off == c.out.size()) {
      c.out.clear();
      c.off = 0;
    }
  }

  void read_all(Conn& c, LoadBook* book) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const double t = now_s();
        c.reader.feed_views(buf, static_cast<size_t>(n),
                            [&](std::string_view line) {
                              auto tagged = service::parse_tagged_response(
                                  line);
                              if (tagged.ok() && tagged->has_cid) {
                                book->reply(tagged->cid, t,
                                            tagged->response);
                              }
                            });
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.dead = true;
      }
      return;
    }
  }

  std::vector<std::unique_ptr<Conn>> conns_;
};

// Sends `count` commands open-loop at `rate`/s starting at `start_s`; the
// i-th is due at start_s + i / rate. `make(i, due)` queues command i.
template <typename MakeFn>
void open_loop(Generator* gen, LoadBook* book, double rate, size_t count,
               double start_s, MakeFn&& make) {
  size_t i = 0;
  const double end_s = start_s + static_cast<double>(count) / rate;
  while (i < count && !gen->dead()) {
    const double t = now_s();
    while (i < count && start_s + static_cast<double>(i) / rate <= t) {
      make(i, start_s + static_cast<double>(i) / rate, t);
      ++i;
    }
    const double next_due =
        i < count ? start_s + static_cast<double>(i) / rate : end_s;
    gen->pump(book, next_due - now_s());
  }
}

// Waits for every outstanding reply, up to `grace_s`; the rest fail.
void settle(Generator* gen, LoadBook* book, double grace_s) {
  const double deadline = now_s() + grace_s;
  while (book->outstanding() > 0 && !gen->dead() && now_s() < deadline) {
    gen->pump(book, std::min(0.05, deadline - now_s()));
  }
  book->expire();
}

std::string submit_line(uint64_t cid, const std::string& row) {
  return "CID " + std::to_string(cid) + " SUBMIT " + row + "\n";
}

std::string status_line(uint64_t cid, int shard, uint64_t job) {
  return util::strfmt("CID %llu SHARD %d STATUS %llu\n",
                      static_cast<unsigned long long>(cid), shard,
                      static_cast<unsigned long long>(job));
}

uint64_t job_id_of_row(const std::string& row) {
  return std::strtoull(row.c_str(), nullptr, 10);
}

service::ServerConfig server_config(const LiveSpec& spec) {
  service::ServerConfig cfg;
  cfg.session = spec.session;
  cfg.journal_path = spec.journal_stem;
  cfg.tcp_port = 0;
  cfg.limits = service::ServiceLimits{};  // defaults, not the environment
  cfg.limits.shards = kShards;
  return cfg;
}

// Server::start, then one PING per shard: a shard answers only once its
// engine is built and its base trace loaded.
util::Status start_and_wait_ready(service::Server* server) {
  if (auto status = server->start(); !status.ok()) {
    return status;
  }
  auto client = service::Client::connect({"", server->tcp_port()});
  if (!client.ok()) {
    return client.error();
  }
  for (int k = 0; k < kShards; ++k) {
    auto resp = client->call(util::strfmt("SHARD %d PING", k));
    if (!resp.ok()) {
      return resp.error();
    }
    if (!resp->ok()) {
      return util::Error{util::ErrorCode::kIoError,
                         "PING answered " + resp->payload};
    }
  }
  return util::Status::Ok();
}

size_t journal_base_jobs(const service::JournalSession& journal) {
  if (journal.session.base_trace_csv.empty()) {
    return 0;
  }
  auto base = workload::trace_from_csv(journal.session.base_trace_csv);
  return base.ok() ? base->size() : 0;
}

std::vector<std::string> shard_journal_paths(const LiveSpec& spec) {
  std::vector<std::string> paths;
  for (int k = 0; k < kShards; ++k) {
    paths.push_back(spec.journal_stem + ".shard" + std::to_string(k));
  }
  return paths;
}

}  // namespace

LiveResult run_live(const LiveSpec& spec) {
  LiveResult out;
  service::Server server(server_config(spec));
  if (auto status = start_and_wait_ready(&server); !status.ok()) {
    out.error = "server start: " + status.error().message;
    return out;
  }
  const std::vector<std::string> journal_paths = shard_journal_paths(spec);

  std::string error;
  Generator gen(server.tcp_port(), kConnections, &error);
  if (!error.empty()) {
    out.error = error;
    return out;
  }

  // ---- measured window: half SUBMIT, half STATUS of acknowledged ids ----
  util::Rng rng(spec.seed);
  size_t next_row = 0;
  uint64_t next_cid = 1;
  LoadBook window;
  const size_t count = static_cast<size_t>(kLiveRate * kLiveWindowS);
  const auto w0 = Clock::now();
  open_loop(&gen, &window, kLiveRate, count, now_s(),
            [&](size_t i, double due, double t) {
              const uint64_t cid = next_cid++;
              std::string line;
              if (i % 2 == 0 && next_row < spec.submit_rows.size()) {
                const std::string& row = spec.submit_rows[next_row++];
                const int shard = static_cast<int>(
                    service::tenant_of_csv_row(row) %
                    static_cast<uint64_t>(kShards));
                line = submit_line(cid, row);
                window.sent(cid, LoadBook::Kind::kSubmit, due, t,
                            job_id_of_row(row), shard);
              } else {
                uint64_t job = spec.status_fallback_id;
                int shard = 0;
                const auto& acked = window.acked();
                if (!acked.empty()) {
                  const auto& pick =
                      acked[static_cast<size_t>(rng.uniform_int(
                          0, static_cast<int64_t>(acked.size()) - 1))];
                  job = pick.first;
                  shard = pick.second;
                }
                line = status_line(cid, shard, job);
                window.sent(cid, LoadBook::Kind::kStatus, due, t, job, shard);
              }
              gen.queue(i, line);
              line.pop_back();
              out.window_lines.push_back(std::move(line));
            });
  settle(&gen, &window, 5.0);
  out.window_submits = window.attempted(LoadBook::Kind::kSubmit);
  out.window_statuses = window.attempted(LoadBook::Kind::kStatus);
  out.attempted += window.attempted();
  out.failed += window.failed();
  const double w = kLatencyWindowS;
  out.submit_p50_ms = windowed_quantile(
      window.latencies(LoadBook::Kind::kSubmit), w, 0.50);
  out.submit_p99_ms = windowed_quantile(
      window.latencies(LoadBook::Kind::kSubmit), w, 0.99);
  out.status_p99_ms = windowed_quantile(
      window.latencies(LoadBook::Kind::kStatus), w, 0.99);
  out.gen_lag_p99_ms = quantile(window.gen_lag_ms(), 0.99);
  std::vector<std::pair<uint64_t, int>> acked = window.acked();
  // SUBMITs that got no OK: a server may still have journaled them.
  size_t unacked = window.failed(LoadBook::Kind::kSubmit);
  const auto w1 = Clock::now();
  out.phase_s.emplace_back("window", seconds_between(w0, w1));

  // ---- probes: SUBMIT-only, fixed length, rising rate ----
  auto client = service::Client::connect({"", server.tcp_port()});
  if (!client.ok()) {
    out.error = "control connection: " + client.error().message;
    return out;
  }
  // One fixed-length SUBMIT-only probe at `rate`.
  auto probe = [&](double rate) {
    const size_t n = static_cast<size_t>(rate * kProbeS);
    ProbeResult pr;
    pr.rate = rate;
    if (next_row + n > spec.submit_rows.size()) {
      return pr;  // out of rows: counts as a miss
    }
    LoadBook book;
    const double start = now_s();
    open_loop(&gen, &book, rate, n, start,
              [&](size_t i, double due, double t) {
                const uint64_t cid = next_cid++;
                const std::string& row = spec.submit_rows[next_row++];
                const int shard = static_cast<int>(
                    service::tenant_of_csv_row(row) %
                    static_cast<uint64_t>(kShards));
                book.sent(cid, LoadBook::Kind::kSubmit, due, t,
                          job_id_of_row(row), shard);
                gen.queue(i, submit_line(cid, row));
              });
    settle(&gen, &book, 5.0);
    // Let each shard finish the arrivals the probe injected before the
    // next probe starts: a PING is answered only after the shard's next
    // run_until.
    for (int k = 0; k < kShards; ++k) {
      (void)client->call(util::strfmt("SHARD %d PING", k));
    }
    pr.failed = book.failed();
    pr.p99_ms = quantile(book.latencies_ms(LoadBook::Kind::kSubmit), 0.99);
    // n requests span n - 1 inter-arrival gaps plus one more period.
    const double span = book.last_sent_s() - start + 1.0 / rate;
    pr.achieved = static_cast<double>(book.acked().size()) / span;
    pr.pass = pr.failed == 0 && pr.p99_ms <= kP99LimitMs;
    out.probes.push_back(pr);
    out.attempted += book.attempted();
    unacked += book.failed();
    acked.insert(acked.end(), book.acked().begin(), book.acked().end());
    return pr;
  };
  // Steps up from the start rate to the first confirmed miss (or down to
  // the first pass), then bisection in log space between the highest pass
  // and the lowest miss. A miss is confirmed by a second probe at the same
  // rate, so one stall on a busy host does not end the search early.
  double rate = kProbeStartRate;
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  for (int p = 0; p < kMaxProbes;) {
    ProbeResult pr = probe(rate);
    ++p;
    if (!pr.pass && p < kMaxProbes) {
      pr = probe(rate);
      ++p;
    }
    if (pr.pass) {
      lo = rate;
      out.max_submit_rate = std::max(out.max_submit_rate, pr.achieved);
    } else {
      hi = rate;
    }
    if (std::isinf(hi)) {
      rate *= kProbeStep;
    } else if (lo == 0.0) {
      rate *= 0.5;
    } else if (hi / lo < kProbeResolution) {
      break;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }

  out.counters = server.counters();
  for (int k = 0; k < kShards; ++k) {
    auto resp = client->call(util::strfmt("SHARD %d METRICS", k));
    if (!resp.ok() || !resp->ok()) {
      out.checks_failed.push_back("METRICS was not answered OK");
    }
  }

  const auto d0 = Clock::now();
  out.phase_s.emplace_back("probes", seconds_between(w1, d0));

  // ---- DRAIN and the output checks ----
  auto drained = client->call("DRAIN");
  out.phase_s.emplace_back("drain", seconds_between(d0, Clock::now()));
  if (!drained.ok() || !drained->ok()) {
    out.error = "DRAIN failed";
    return out;
  }
  std::vector<std::string> reports;  // serialized, per shard
  for (int k = 0; k < kShards; ++k) {
    reports.push_back(server.report_text(k));
  }
  client->close();
  server.request_shutdown();
  server.wait();

  const auto k0 = Clock::now();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      out.checks_failed.push_back(what);
    }
  };
  for (int k = 0; k < kShards; ++k) {
    const std::string& path = journal_paths[static_cast<size_t>(k)];
    auto journal = service::load_journal(path);
    check(journal.ok(), "shard journal parses: " + path);
    if (!journal.ok()) {
      continue;
    }
    std::set<uint64_t> journaled;
    for (const auto& e : journal->submissions) {
      journaled.insert(e.job_id);
    }
    size_t acked_here = 0;
    bool all_journaled = true;
    for (const auto& [id, shard] : acked) {
      if (shard == k) {
        ++acked_here;
        all_journaled = all_journaled && journaled.count(id) > 0;
      }
    }
    check(all_journaled,
          util::strfmt("every acknowledged SUBMIT on shard %d is journaled",
                       k));
    check(journaled.size() <= acked_here + unacked,
          util::strfmt("shard %d journal holds only acknowledged or unanswered "
                       "SUBMITs",
                       k));
    const std::string& live_report = reports[static_cast<size_t>(k)];
    auto report = sim::deserialize_report(live_report);
    check(report.ok(), util::strfmt("shard %d live report parses", k));
    if (report.ok()) {
      check(report->submitted == journal->submissions.size() +
                                     journal_base_jobs(*journal) &&
                job_accounting_closes(*report),
            util::strfmt("shard %d: completed + abandoned + censored == "
                         "submitted == base + journaled",
                         k));
    }
    auto replayed = service::replay_journal_file(path);
    check(replayed.ok() && sim::serialize_report(*replayed) == live_report,
          util::strfmt("shard %d live report == replay_journal_file", k));
  }
  out.phase_s.emplace_back("checks", seconds_between(k0, Clock::now()));
  return out;
}

}  // namespace perfbench

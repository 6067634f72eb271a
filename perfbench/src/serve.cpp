// `serve` workload: an in-process MfcDaemon (default options, a
// temporary store directory) primed with the canonical corpus sources,
// then two closed-loop clients sending a seeded `report` stream through
// daemonRoundTrip over the unix socket. The stream mixes
//   70% canonical sources       (warm store reads),
//   15% comment-only edits      (full replay from deep summaries),
//   10% unused-declaration inserts into `main`
//                               (partial re-analysis plus store writes),
//    5% sources at a fresh scale (cold analysis plus store writes).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "presburger/feasibility_cache.h"
#include "server/client.h"
#include "server/server.h"
#include "support/perf_stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace padfa;

constexpr unsigned kClients = 2;
// Fresh-scale sources are every (program, scale) pair with a scale in
// [2, kMaxScale], 33 x 999 of them, taken in a seeded order and each
// used once: at 5% cold requests that lasts for ~660k requests, about
// 50 times what a 30 s run at ~420 req/s sends. A cold request that would
// reuse one (a warm hit in the daemon) counts as a failed operation.
constexpr int kMaxScale = 1000;
// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 15;
// peak_rss_mb is read when this many stream requests have completed,
// so it measures a fixed amount of work: the store grows with every
// request that is not warm, and a faster daemon serves more of them.
constexpr uint64_t kRssAfter = 3000;

enum Kind { kWarm, kReplay, kEdit, kCold, kKinds };
const char* const kKindName[kKinds] = {"warm", "replay", "edit", "cold"};

// Reference signatures. An edit inserts one line, which shifts the
// line-numbered loop ids in the signature, so each edit kind has its own
// reference, computed from a representative edit of the same shape
// (the stream's edits differ from it only in one token).
struct Program {
  std::string source;
  std::string signature;         // canonical source
  std::string replay_signature;  // one comment line prepended
  std::string edit_signature;    // one unused declaration in main
};

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string prependComment(const std::string& src, const std::string& tag) {
  return "// edit " + tag + "\n" + src;
}

std::string insertDecl(const std::string& src, const std::string& name) {
  size_t brace = src.find('{', src.find("proc main"));
  return src.substr(0, brace + 1) + "\n  int " + name + ";" +
         src.substr(brace + 1);
}

std::string signatureOf(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  if (!cp) throw std::runtime_error("a generated source does not compile:\n" +
                                    diags.dump());
  return planSignature(*cp);
}

struct Request {
  Kind kind;
  std::string line;
  /// The reference signature; null for a cold request, whose reference
  /// is computed after the run (see checkColdResponses).
  const std::string* expected;
  uint64_t fresh = 0;      // cold: index into State::fresh
  bool reused = false;     // cold: the fresh-scale sources ran out
};

/// A started, primed daemon in its own directory; stopped and removed
/// on destruction.
struct Daemon {
  std::string dir;
  std::unique_ptr<server::MfcDaemon> d;

  Daemon(const std::string& work_dir, int rep) {
    dir = work_dir + "/" + std::to_string(::getpid()) + "-" +
          std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/store");
    server::ServerOptions opts;
    opts.socket_path = dir + "/d.sock";
    opts.store_dir = dir + "/store";
    // The benchmark keeps its own signal handling.
    opts.install_signal_handlers = false;
    d = std::make_unique<server::MfcDaemon>(opts);
    std::string err;
    if (!d->start(err)) throw std::runtime_error("daemon start: " + err);
  }
  ~Daemon() {
    d->requestStop();
    d->wait();
    d.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return d->options().socket_path; }
};

struct State {
  std::vector<Program> progs;
  /// (program, scale) of every fresh-scale source, seed-shuffled.
  std::vector<std::pair<uint32_t, uint32_t>> fresh;
  std::atomic<uint64_t> next_fresh{0};
  std::unique_ptr<Daemon> daemon;
  /// Signatures the daemon returned for cold requests, by fresh index.
  std::mutex cold_mu;
  std::vector<std::pair<uint64_t, std::string>> cold_got;
};

std::string freshSource(const State& s, uint64_t idx) {
  const auto& [prog, scale] = s.fresh[idx % s.fresh.size()];
  return instantiate(corpus()[prog], static_cast<int>(scale));
}

/// Request `i` of the stream of `seed`: a pure function of both, except
/// that each cold request takes the next unused fresh-scale source.
Request makeRequest(State& s, uint64_t seed, uint64_t i) {
  uint64_t h = mix64(seed * 0x100000001b3ull + i);
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const Program& p = s.progs[mix64(h) % s.progs.size()];
  server::Request req;
  req.cmd = "report";
  Request out{kWarm, {}, &p.signature};
  std::string tag = std::to_string(seed) + "x" + std::to_string(i);
  if (u < 0.70) {
    req.source = p.source;
  } else if (u < 0.85) {
    out.kind = kReplay;
    req.source = prependComment(p.source, tag);
    out.expected = &p.replay_signature;
  } else if (u < 0.95) {
    out.kind = kEdit;
    req.source = insertDecl(p.source, "pb" + tag);
    out.expected = &p.edit_signature;
  } else {
    out.kind = kCold;
    out.expected = nullptr;
    out.fresh = s.next_fresh.fetch_add(1);
    out.reused = out.fresh >= s.fresh.size();
    req.source = freshSource(s, out.fresh);
  }
  out.line = server::encodeRequest(req);
  return out;
}


/// Inputs, reference signatures of the canonical and edited sources
/// (in-process compileSource), a started daemon primed with every
/// canonical source.
void setUp(const Options& o, int rep, State& s) {
  s.daemon.reset();
  pb::FeasibilityCache::global().clear();
  s.progs.clear();
  s.fresh.clear();
  s.next_fresh = 0;
  s.cold_got.clear();
  for (uint32_t i = 0; i < corpus().size(); ++i) {
    const CorpusEntry& e = corpus()[i];
    Program p;
    p.source = instantiate(e);
    p.signature = signatureOf(p.source);
    p.replay_signature = signatureOf(prependComment(p.source, "ref"));
    p.edit_signature = signatureOf(insertDecl(p.source, "pbref"));
    s.progs.push_back(std::move(p));
    for (uint32_t k = 2; k <= kMaxScale; ++k) s.fresh.push_back({i, k});
  }
  Rng rng(o.seed);
  std::shuffle(s.fresh.begin(), s.fresh.end(), rng);
  // The references must not warm the daemon's feasibility cache.
  pb::FeasibilityCache::global().clear();
  s.daemon = std::make_unique<Daemon>(o.work_dir, rep);
  for (const Program& p : s.progs) {
    server::Request req;
    req.cmd = "report";
    req.source = p.source;
    std::string resp, err;
    if (!server::daemonRoundTrip(s.daemon->socket(),
                                 server::encodeRequest(req), resp, err))
      throw std::runtime_error("priming the daemon: " + err);
  }
}

/// Check one response; returns false (and records why) on failure. A
/// cold response's signature is kept for checkColdResponses.
bool checkResponse(State& s, const std::string& resp, const Request& req,
                   Report& r, std::mutex& mu) {
  JsonValue v;
  std::string err;
  bool ok = parseJson(resp, v, err) && v.get("ok").asBool();
  if (ok && req.expected) {
    ok = v.get("signature").asString() == *req.expected;
  } else if (ok) {
    std::lock_guard<std::mutex> lock(s.cold_mu);
    s.cold_got.emplace_back(req.fresh, v.get("signature").asString());
  }
  std::lock_guard<std::mutex> lock(mu);
  if (req.reused) {
    r.check(false, "the fresh-scale sources ran out: a cold request "
                   "reused one");
    return false;
  }
  r.check(ok, std::string(kKindName[req.kind]) +
                  " request: response is not ok or its signature differs "
                  "from the in-process reference: " +
                  resp.substr(0, 160));
  return ok;
}

/// Compare every cold response kept by checkResponse with an in-process
/// compileSource of the same source; run after the timed requests.
void checkColdResponses(State& s, Report& r) {
  for (const auto& [idx, got] : s.cold_got)
    r.check(signatureOf(freshSource(s, idx)) == got,
            "cold request: signature differs from the in-process "
            "reference for fresh source " + std::to_string(idx));
  s.cold_got.clear();
}

struct PassTimes {
  std::vector<double> by_kind[kKinds];
  std::vector<double> all;
  void add(Kind k, double ms) {
    by_kind[k].push_back(ms);
    all.push_back(ms);
  }
};

/// Traced pass: `n` requests through handleLine in process, then `n`
/// more over the socket from one client.
PassTimes tracedPass(const Options& o, State& s, uint64_t n, Report& r,
                     PassTimes& socket_times) {
  std::mutex mu;
  PassTimes dispatch;
  for (uint64_t i = 0; i < n; ++i) {
    Request req = makeRequest(s, o.seed, i);
    Span root("bench.request", static_cast<int64_t>(i));
    auto t0 = Clock::now();
    std::string resp;
    {
      Span sp("server.dispatch");
      resp = s.daemon->d->handleLine(req.line);
    }
    dispatch.add(req.kind, msSince(t0));
    checkResponse(s, resp, req, r, mu);
  }
  for (uint64_t i = n; i < 2 * n; ++i) {
    Request req = makeRequest(s, o.seed, i);
    Span root("bench.request", static_cast<int64_t>(i));
    auto t0 = Clock::now();
    std::string resp, err;
    bool sent;
    {
      Span sp("server.roundtrip");
      sent = server::daemonRoundTrip(s.daemon->socket(), req.line, resp, err);
    }
    socket_times.add(req.kind, msSince(t0));
    if (sent) checkResponse(s, resp, req, r, mu);
    else r.check(false, "round trip failed: " + err);
  }
  return dispatch;
}

void reportTraced(const Options& o, State& s, Report& r, uint64_t n) {
  Tracer& tr = Tracer::instance();
  PassTimes sock, sock_quiet;
  // The same pass untraced and traced, each on a freshly set-up daemon;
  // the wall-time ratio is the recorder's overhead.
  auto t0 = Clock::now();
  Report quiet(true);
  tracedPass(o, s, n, quiet, sock_quiet);
  double untraced_ms = msSince(t0);
  checkColdResponses(s, quiet);
  r.mergeChecks(quiet);
  setUp(o, kSetupReps, s);

  PerfStats& ps = PerfStats::instance();
  ps.resetAll();
  const server::ServerStats& st = s.daemon->d->stats();
  uint64_t warm0 = st.warm_hits.load();
  tr.setEnabled(true);
  t0 = Clock::now();
  PassTimes disp = tracedPass(o, s, n, r, sock);
  double traced_ms = msSince(t0);
  std::vector<double> flush_ms;
  for (int k = 0; k < 3; ++k) {
    auto f0 = Clock::now();
    Span sp("store.flush");
    s.daemon->d->handleLine("{\"cmd\":\"flush\"}");
    flush_ms.push_back(msSince(f0));
  }
  tr.setEnabled(false);
  checkColdResponses(s, r);

  auto count = [](const std::atomic<uint64_t>& c) {
    return static_cast<double>(c.load());
  };
  double d50 = median(disp.all);
  r.metric("server.dispatch_ms_p50", d50, "ms", disp.all.size());
  r.metric("server.transport_ms_p50", median(sock.all) - d50, "ms",
           sock.all.size());
  const char* names[kKinds] = {"server.warm_ms_p50", "server.replay_ms_p50",
                               "server.edit_ms_p50", "server.cold_ms_p50"};
  for (int k = 0; k < kKinds; ++k)
    r.metric(names[k], median(disp.by_kind[k]), "ms", disp.by_kind[k].size());
  r.metric("server.shed", count(st.shed), "count");
  r.metric("server.errors", count(st.errors), "count");
  r.metric("server.degraded", count(st.degraded_requests), "count");
  r.metric("store.warm_hit_share",
           static_cast<double>(st.warm_hits.load() - warm0) / (2.0 * n),
           "ratio");
  struct stat sb {};
  std::string snap = s.daemon->dir + "/store/summary.snap";
  r.metric("store.snapshot_bytes",
           ::stat(snap.c_str(), &sb) == 0 ? static_cast<double>(sb.st_size)
                                          : 0,
           "bytes");
  r.metric("store.flush_ms", median(flush_ms), "ms", flush_ms.size());
  const IncrementalCounters& inc = ps.incremental;
  double rep = count(inc.procs_replayed), ana = count(inc.procs_analyzed);
  double fh = count(inc.fingerprint_hits), fm = count(inc.fingerprint_misses);
  r.metric("ipa.procs_replayed", rep, "count");
  r.metric("ipa.procs_analyzed", ana, "count");
  r.metric("ipa.replay_share", rep + ana > 0 ? rep / (rep + ana) : 0, "ratio");
  r.metric("ipa.fingerprint_hit_rate", fh + fm > 0 ? fh / (fh + fm) : 0,
           "ratio");
  reportAnalysisCounters(r);
  r.metric("bench.trace_overhead", traced_ms / untraced_ms, "ratio");
}

}  // namespace

void runServe(const Options& o, Report& r) {
  State s;
  int rep = 0;
  double setup_s = medianSetupSeconds(kSetupReps,
                                      [&] { setUp(o, rep++, s); });
  if (o.forge) s.progs[0].signature += "forged";

  if (o.trace) {
    reportTraced(o, s, r, 400);
    return;
  }

  std::mutex mu;
  std::atomic<uint64_t> next{0}, done{0};
  double rss_mb = 0;  // peak RSS after kRssAfter requests, under mu
  PassTimes samples[kClients];
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(o.seconds);
  auto client = [&](unsigned c) {
    while (Clock::now() < deadline) {
      Request req = makeRequest(s, o.seed, next.fetch_add(1));
      std::string resp, err;
      auto t0 = Clock::now();
      bool sent = server::daemonRoundTrip(s.daemon->socket(), req.line, resp,
                                          err);
      double ms = msSince(t0);
      if (!sent) {
        std::lock_guard<std::mutex> lock(mu);
        r.check(false, "round trip failed: " + err);
        continue;
      }
      if (checkResponse(s, resp, req, r, mu))
        samples[c].add(req.kind, ms);
      if (done.fetch_add(1) + 1 == kRssAfter) {
        std::lock_guard<std::mutex> lock(mu);
        rss_mb = peakRssMb();
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  double wall_s = msSince(start) / 1e3;

  PassTimes pt;
  for (const PassTimes& c : samples)
    for (int k = 0; k < kKinds; ++k)
      for (double ms : c.by_kind[k]) pt.add(static_cast<Kind>(k), ms);
  uint64_t warm_hits = s.daemon->d->stats().warm_hits.load();
  s.daemon.reset();
  checkColdResponses(s, r);
  if (done < kRssAfter) {
    r.line("note: fewer than " + std::to_string(kRssAfter) +
           " requests completed; peak_rss_mb is the peak of the whole run");
    rss_mb = peakRssMb();
  }

  // Pooled over the whole run: the request rate falls as the store
  // grows, so medians over spans of the run moved more from run to run
  // (throughput 0.12 of its median over 6 runs, against 0.06 pooled).
  size_t n = pt.all.size();
  double p99 = quantile(pt.all, 0.99), per_s = n / wall_s;
  r.metric("setup_s", setup_s, "s", kSetupReps);
  r.metric("peak_rss_mb", rss_mb, "MB", kRssAfter);
  r.metric("latency_ms_p99", p99, "ms", n);
  r.metric("throughput_per_s", per_s, "1/s", n);
  r.line("fresh-scale sources used: " + std::to_string(s.next_fresh) +
         " of " + std::to_string(s.fresh.size()));
  r.line("-- workload metrics, not gated; per-kind medians");
  r.metric("serve_ms_p50", median(pt.all), "ms", n, false);
  r.metric("serve_ms_p99", p99, "ms", n, false);
  r.metric("serve_requests_per_s", per_s, "1/s", n, false);
  for (int k = 0; k < kKinds; ++k)
    r.metric(std::string("serve.") + kKindName[k] + "_ms_p50",
             median(pt.by_kind[k]), "ms", pt.by_kind[k].size(), false);
  // Priming requests are cold, so every warm hit is a stream request.
  r.metric("serve.warm_share_measured",
           n ? static_cast<double>(warm_hits) / static_cast<double>(n) : 0,
           "ratio", n, false);
  r.metric("failed_share",
           r.attempted() ? double(r.failed()) / r.attempted() : 0, "ratio",
           r.attempted(), false);
}

}  // namespace perfbench

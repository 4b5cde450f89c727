// serve-mixed: a real `gqe_serve --listen` daemon (journal without
// fsync, --verify, default concurrency and coalescing) driven open-loop by
// this single-threaded client over four connections with seeded Poisson
// arrivals. Mix: 40% cq, 20% cqs, 20% chase, 10% omq over a pool of 16
// generated programs, plus 10% exact resends of completed ids.
//
// Phases after set-up: the nominal-rate phase (latency metrics), then a
// fixed geometric rate ladder (max_rate_rps). Every request is timed from
// its due send time, not from when the generator got around to sending it.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/serialize.h"
#include "base/subprocess.h"
#include "bench.h"
#include "chase/chase.h"
#include "inputs.h"
#include "net/client.h"
#include "net/frame.h"
#include "parser/parser.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/worker.h"
#include "tgd/tgd.h"
#include "verify/verifier.h"
#include "verify/witness.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr int kSetupReps = 3;
constexpr int kClosedPrograms = 8;
constexpr int kChasePrograms = 4;
constexpr int kGuardedPrograms = 4;
constexpr int kClosedNodes = 500;
constexpr int kChaseNodes = 150;
constexpr int kGuardedFacts = 8;
/// The nominal offered rate, fixed when the benchmark was defined at about
/// a quarter of the max_rate_rps it measured then (about 200/s). At half,
/// queueing made the tail latencies follow the host's speed swings.
constexpr double kNominalRps = 50.0;
/// Share of --seconds spent at the nominal rate; the ladder follows.
constexpr double kNominalShare = 0.6;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kLadderRatio = 1.189207115002721;  // 2^(1/4)
constexpr int kLadderSteps = 9;
constexpr double kLadderStepMs = 1000.0;
/// A step whose generator ran later than this at p99 measured the
/// generator, not the daemon.
constexpr double kMaxGeneratorLateMs = 10.0;
/// How long to wait for stragglers after the last due send of a phase.
constexpr double kDrainMs = 3000.0;

using Kind = gqe::RequestKind;
constexpr Kind kCq = Kind::kCq;
constexpr Kind kCqs = Kind::kCqs;
constexpr Kind kChase = Kind::kChase;
constexpr Kind kOmq = Kind::kOmq;
constexpr int kKinds = 4;

/// One distinct (kind, program, query): the unit of references and
/// warm-up.
struct Combo {
  Kind kind;
  std::string program;  // file name under the program root
  std::string query;    // empty for chase
  std::string warm_id;
  std::string warm_line;
  gqe::WorkerResult reference;
  std::string result_line;  // the daemon's warm-up answer
};

struct Sent {
  double due_ms = 0;
  int conn = 0;
  int combo = 0;
  bool resend = false;
  std::string id;
  std::string line;
  std::string span_name;  // "serve.request.<kind>" or "serve.resend"
  double sent_ms = -1;
  double done_ms = -1;
  bool result = false;  // a kResult frame (else an error frame or nothing)
  std::string payload;
};

struct PoolProgram {
  std::string file;
  std::string text;
};

std::string ProgramName(int i) { return "p" + std::to_string(i) + ".gqe"; }

/// The 16 programs: closed (cq / cqs; the database already satisfies its
/// full TGDs), chase (a full and an existential rule over a graph) and
/// guarded (open-world ontologies with an infinite chase).
std::vector<PoolProgram> MakePrograms(const Options& options) {
  std::vector<PoolProgram> pool;
  const std::string full_rules =
      "e(X,Y), e(Y,Z) -> p(X,Z).\nm(X), e(X,Y) -> m1(Y).\n";
  const gqe::TgdSet full = gqe::ParseTgds(full_rules);
  for (int k = 0; k < kClosedPrograms; ++k) {
    gqe::Instance db;
    for (const gqe::Atom& fact : ClosedWorldFacts(options.seed, 1000 + k, kClosedNodes, kClosedNodes)) {
      db.Insert(fact);
    }
    const gqe::ChaseResult closed = gqe::Chase(db, full);
    pool.push_back({ProgramName(k),
                    FactsText(closed.instance.atoms()) + full_rules +
                        "qa(X) :- e(X,Y), e(Y,Z), e(Z,W), m(W).\n"
                        "qb(X) :- e(X,Y), e(Y,Z), e(Z,X).\n"
                        "qc(X) :- m1(X), e(X,Y), p(Y,Z), m1(Z).\n"});
  }
  // Chase programs close in one round: the daemon checkpoints (with
  // fsync) at every round boundary, and fewer boundaries keep a request's
  // time clear of the worker's 20 ms heartbeat period.
  for (int k = 0; k < kChasePrograms; ++k) {
    pool.push_back({ProgramName(kClosedPrograms + k),
                    FactsText(ClosedWorldFacts(options.seed, 2000 + k, kChaseNodes, kChaseNodes)) +
                        "e(X,Y), e(Y,Z) -> p(X,Z).\n"
                        "m(X) -> owns(X,N), item(N).\n"});
  }
  for (int k = 0; k < kGuardedPrograms; ++k) {
    pool.push_back({ProgramName(kClosedPrograms + kChasePrograms + k),
                    OpenWorldProgram(options.seed, 3000 + k, 2, kGuardedFacts, kGuardedFacts)});
  }
  return pool;
}

std::vector<Combo> MakeCombos() {
  std::vector<Combo> combos;
  for (int k = 0; k < kClosedPrograms; ++k) {
    for (Kind kind : {kCq, kCqs}) {
      for (const char* q : {"qa", "qb", "qc"}) {
        combos.push_back(Combo{kind, ProgramName(k), q, "", "", {}, ""});
      }
    }
  }
  for (int k = 0; k < kChasePrograms; ++k) {
    combos.push_back(
        Combo{kChase, ProgramName(kClosedPrograms + k), "", "", "", {}, ""});
  }
  for (int k = 0; k < kGuardedPrograms; ++k) {
    for (const char* q : {"q00", "q01"}) {
      combos.push_back(Combo{
          kOmq, ProgramName(kClosedPrograms + kChasePrograms + k), q, "", "",
          {}, ""});
    }
  }
  for (size_t i = 0; i < combos.size(); ++i) {
    combos[i].warm_id = "w" + std::to_string(i);
  }
  return combos;
}

std::string RequestLine(const std::string& id, const Combo& combo) {
  std::string line = "id=" + id + " kind=" + gqe::RequestKindName(combo.kind) +
                     " program=" + combo.program;
  if (!combo.query.empty()) line += " query=" + combo.query;
  return line;
}

/// The daemon process: started with fork + exec, stopped with SIGTERM
/// (graceful drain), always reaped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  bool Start(const std::string& binary, const std::string& dir,
             const std::string& journal_dir, std::string* error) {
    port_file_ = dir + "/port";
    log_file_ = dir + "/daemon.log";
    std::filesystem::remove(port_file_);
    const std::vector<std::string> args = {
        binary,           "--listen",       "0",
        "--port-file",    port_file_,       "--program-root",
        dir + "/programs", "--journal-dir", journal_dir,
        "--no-journal-fsync", "--verify",   "--quiet-ops"};
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      const int log = ::open(log_file_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const Clock::time_point start = Clock::now();
    while (MsBetween(start, Clock::now()) < 20000.0) {
      std::ifstream in(port_file_);
      if (in >> port_ && port_ > 0) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "gqe_serve exited during start-up";
        return false;
      }
      ::usleep(2000);
    }
    *error = "gqe_serve did not publish its port";
    return false;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then wait for the drain; SIGKILL if it does not end.
  /// Returns the daemon's log (its drain stats line is the last line).
  std::string Stop() {
    if (pid_ <= 0) return "";
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (MsBetween(start, Clock::now()) > 20000.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    std::ifstream in(log_file_);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
  std::string log_file_;
};

/// Sends `requests` (sorted by due time) open-loop and collects one
/// response per request in per-connection FIFO order. Returns when every
/// request has a response, or kDrainMs after the last due time.
void Drive(std::vector<std::unique_ptr<gqe::NetClient>>& conns,
           std::vector<Sent>& requests, Tracer& tracer) {
  std::vector<std::vector<size_t>> fifo(conns.size());
  std::vector<size_t> head(conns.size(), 0);
  size_t next = 0, outstanding = 0;
  const double last_due = requests.empty() ? 0.0 : requests.back().due_ms;
  const Clock::time_point origin = Clock::now();
  std::vector<struct pollfd> fds(conns.size());
  for (;;) {
    double now = MsBetween(origin, Clock::now());
    while (next < requests.size() && requests[next].due_ms <= now) {
      Sent& r = requests[next];
      r.sent_ms = now;
      if (conns[r.conn]->SendRequest(r.line)) {
        fifo[r.conn].push_back(next);
        ++outstanding;
      }
      ++next;
      now = MsBetween(origin, Clock::now());
    }
    if (next == requests.size() && outstanding == 0) break;
    if (now > last_due + kDrainMs) break;
    double wait_ms = 5.0;
    if (next < requests.size()) {
      wait_ms = std::min(wait_ms, requests[next].due_ms - now);
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c]->fd();
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(std::max(0.0, wait_ms) * 1e6);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0) continue;
      for (;;) {
        gqe::Frame frame;
        std::string error;
        const auto got = conns[c]->RecvFrame(&frame, 0, &error);
        if (got != gqe::NetClient::RecvResult::kFrame) break;
        if (head[c] >= fifo[c].size()) break;  // unsolicited; ignored
        Sent& r = requests[fifo[c][head[c]++]];
        --outstanding;
        r.done_ms = MsBetween(origin, Clock::now());
        r.result = frame.type == gqe::FrameType::kResult;
        r.payload = std::move(frame.payload);
        if (tracer.enabled()) {
          tracer.Span(r.span_name, "serve",
                      origin + std::chrono::microseconds(
                                   static_cast<int64_t>(r.due_ms * 1000)),
                      origin + std::chrono::microseconds(
                                   static_cast<int64_t>(r.done_ms * 1000)),
                      -1, r.conn + 1);
        }
      }
    }
  }
}

/// Poisson arrivals at `rate` for `duration_ms`, round-robin over the
/// connections, with the workload's request mix.
std::vector<Sent> Schedule(Rng& rng, double rate, double duration_ms,
                           const std::string& prefix,
                           const std::vector<Combo>& combos) {
  std::vector<int> by_kind[kKinds];
  for (size_t i = 0; i < combos.size(); ++i) {
    by_kind[static_cast<int>(combos[i].kind)].push_back(static_cast<int>(i));
  }
  std::vector<Sent> out;
  double t = 0.0;
  for (int i = 0;; ++i) {
    t += -std::log(1.0 - rng.Uniform()) * 1000.0 / rate;
    if (t >= duration_ms) break;
    Sent s;
    s.due_ms = t;
    s.conn = i % kConnections;
    const double u = rng.Uniform();
    if (u < 0.9) {
      const Kind kind = u < 0.4 ? kCq : u < 0.6 ? kCqs : u < 0.8 ? kChase : kOmq;
      const std::vector<int>& pick = by_kind[static_cast<int>(kind)];
      s.combo = pick[rng.Below(static_cast<uint32_t>(pick.size()))];
      s.id = prefix + std::to_string(i);
      s.line = RequestLine(s.id, combos[s.combo]);
      s.span_name = std::string("serve.request.") + gqe::RequestKindName(kind);
    } else {
      s.resend = true;
      s.combo = static_cast<int>(rng.Below(static_cast<uint32_t>(combos.size())));
      s.id = combos[s.combo].warm_id;
      s.line = combos[s.combo].warm_line;
      s.span_name = "serve.resend";
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find_first_of(" \n", begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

/// Checks one served result line against the in-process reference of the
/// same request. Chase digests (crc) hash interned ids, which depend on
/// the evaluating process's history, so chase results are matched on
/// their fact, answer and round counts instead.
std::string CheckResult(const Options& options, const Sent& s,
                        const Combo& combo) {
  if (s.done_ms < 0) return "no response";
  if (!s.result) return "error frame: " + s.payload.substr(0, 60);
  const std::string& line = s.payload;
  if (line.rfind("result: id=" + s.id + " ", 0) != 0) return "wrong id";
  if (Field(line, "state") != "completed") return "state " + Field(line, "state");
  if (Field(line, "verified") != "yes") return "not verified";
  const gqe::WorkerResult& ref = combo.reference;
  if (Field(line, "answers") != std::to_string(ref.answer_count)) {
    return "answer count differs from in-process evaluation";
  }
  if (combo.kind == kChase) {
    if (Field(line, "facts") != std::to_string(ref.facts) ||
        Field(line, "rounds") != std::to_string(ref.rounds_completed)) {
      return "chase differs from in-process evaluation";
    }
    return "";
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", ref.answer_crc);
  if (Field(line, "crc") != crc + InjectedFault(options)) {
    return "answer digest differs from in-process evaluation";
  }
  return "";
}

/// Runs one request in this process exactly as a worker would (with
/// witness collection, as under --verify) and decodes its result.
bool RunInProcess(const std::string& root, const Combo& combo,
                  const std::string& scratch, gqe::WorkerResult* out,
                  std::string* blob) {
  gqe::WorkerInvocation invocation;
  invocation.request.id = combo.warm_id;
  invocation.request.kind = combo.kind;
  invocation.request.program_path = root + "/" + combo.program;
  invocation.request.query = combo.query;
  invocation.collect_witness = true;
  const int fd = ::open(scratch.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const int code = gqe::RunWorkerInProcess(invocation, fd, -1);
  ::close(fd);
  if (code != gqe::kWorkerExitOk) return false;
  if (!gqe::ReadFileBytes(scratch, blob).ok()) return false;
  return gqe::DecodeWorkerResult(*blob, out).ok();
}

/// The supervisor's --verify check of one worker result, redone here.
bool VerifyLikeSupervisor(const gqe::Program& program, const Combo& combo,
                          const gqe::WorkerResult& result) {
  gqe::EvalWitness witness;
  if (!gqe::DecodeEvalWitnessFromString(result.witness, &witness).ok()) {
    return false;
  }
  gqe::Instance replayed;
  const gqe::Instance* target = &program.database;
  if (combo.kind == kChase || witness.kind == gqe::EvalWitness::Kind::kChaseAndAnswers) {
    gqe::DerivationCheckOptions check;
    check.check_model = combo.kind == kChase;
    if (!gqe::VerifyDerivation(program.database, program.tgds,
                               witness.derivation, &replayed, check)
             .ok()) {
      return false;
    }
    target = &replayed;
  }
  if (combo.kind == kChase) return true;
  const gqe::UCQ& query = program.queries.at(combo.query);
  for (const gqe::HomWitness& hom : witness.answers) {
    if (!gqe::VerifyHomomorphism(query, *target, hom).ok()) return false;
  }
  return true;
}

struct Phase {
  double p50 = 0, p90 = 0, p99 = 0, late_p99 = 0;
  double chase_p50 = 0, chase_p90 = 0;
  double completed_share = 0;
  size_t sheds = 0;
  double query_rate = 0, facts_per_s = 0;
};

/// Latency statistics of one phase. Requests without a result count as
/// missing every latency limit.
Phase Summarize(const std::vector<Sent>& sent, const std::vector<Combo>& combos,
                double duration_ms) {
  Phase p;
  std::vector<double> all, query, chase, late;
  double chase_facts = 0, chase_ms = 0, query_ms = 0;
  size_t in_time = 0, answered = 0;
  for (const Sent& s : sent) {
    const double latency =
        s.done_ms >= 0 && s.result ? s.done_ms - s.due_ms : HUGE_VAL;
    if (s.sent_ms >= 0) late.push_back(s.sent_ms - s.due_ms);
    if (!s.result && s.payload.rfind("OVERLOADED", 0) == 0) ++p.sheds;
    if (latency <= duration_ms - s.due_ms + kLatencyLimitMs) ++in_time;
    all.push_back(latency);
    if (combos[s.combo].kind == kChase && !s.resend) {
      chase.push_back(latency);
      if (std::isfinite(latency)) {
        chase_ms += latency;
        chase_facts += std::atof(Field(s.payload, "facts").c_str());
      }
    } else {
      query.push_back(latency);
      if (std::isfinite(latency)) {
        query_ms += latency;
        ++answered;
      }
    }
  }
  p.p50 = Percentile(query, 0.5);
  p.p90 = Percentile(query, 0.9);
  p.p99 = Percentile(all, 0.99);
  p.late_p99 = Percentile(late, 0.99);
  p.chase_p50 = Percentile(chase, 0.5);
  p.chase_p90 = Percentile(chase, 0.9);
  p.completed_share = sent.empty() ? 0 : static_cast<double>(in_time) / sent.size();
  // Like the in-process workloads: answers per second of answer time.
  p.query_rate = query_ms > 0 ? 1000.0 * answered / query_ms : 0;
  p.facts_per_s = chase_ms > 0 ? 1000.0 * chase_facts / chase_ms : 0;
  return p;
}

std::map<std::string, double> ParseDrainStats(const std::string& log) {
  std::map<std::string, double> stats;
  const size_t at = log.rfind("drained net:");
  if (at == std::string::npos) return stats;
  std::istringstream in(log.substr(at + 12, log.find('\n', at) - at - 12));
  std::string pair;
  while (in >> pair) {
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      stats[pair.substr(0, eq)] = std::atof(pair.c_str() + eq + 1);
    }
  }
  return stats;
}

}  // namespace

Report RunServeMixed(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  const std::string dir = options.out_dir + "/serve";
  const std::string root = dir + "/programs";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(root);

  std::vector<PoolProgram> programs;
  std::vector<Combo> combos = MakeCombos();
  Daemon daemon;
  std::vector<std::unique_ptr<gqe::NetClient>> conns;
  std::string error;
  bool up = false;

  // Set-up: programs written, daemon started and connected, and one
  // warm-up request per combo answered. Repeated; the last daemon stays.
  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int rep) {
    conns.clear();
    daemon.Stop();
    programs = MakePrograms(options);
    for (const PoolProgram& p : programs) {
      std::ofstream(root + "/" + p.file) << p.text;
    }
    up = daemon.Start(options.serve_binary, dir,
                      dir + "/journal-" + std::to_string(rep), &error);
    for (int c = 0; up && c < kConnections; ++c) {
      conns.push_back(std::make_unique<gqe::NetClient>());
      up = conns.back()->Connect("127.0.0.1", daemon.port(), 5000, &error);
    }
    if (!up) return;
    std::vector<Sent> warm;
    for (size_t i = 0; i < combos.size(); ++i) {
      combos[i].warm_line = RequestLine(combos[i].warm_id, combos[i]);
      Sent s;
      s.conn = static_cast<int>(i) % kConnections;
      s.combo = static_cast<int>(i);
      s.id = combos[i].warm_id;
      s.line = combos[i].warm_line;
      warm.push_back(std::move(s));
    }
    Drive(conns, warm, tracer);
    for (size_t i = 0; i < combos.size(); ++i) {
      combos[i].result_line = warm[i].payload;
    }
  });
  if (!up) {
    report.Fail("daemon start: " + error);
    return report;
  }

  Rng rng(options.seed, "serve-mixed", 0);
  const double nominal_ms = options.seconds * 1000.0 * kNominalShare;
  std::vector<Sent> nominal = Schedule(rng, kNominalRps, nominal_ms, "n", combos);
  Drive(conns, nominal, tracer);
  const Phase at_nominal = Summarize(nominal, combos, nominal_ms);
  // The daemon's high-water mark after the nominal phase: the ladder that
  // follows runs as long as the daemon keeps up, which would make the
  // peak track max_rate_rps.
  const double daemon_rss = PeakRssMb(daemon.pid());

  // The ladder: fixed rates from twice the nominal rate up, until two valid
  // steps in a row miss the limit, shed, or lose requests (one failing
  // step between passing ones is a transient, not the limit). A step
  // whose generator ran late measured the generator: it is marked
  // invalid and counts neither way.
  std::vector<std::vector<Sent>> steps;
  double pass_rate = 0, pass_p99 = 0, fail_rate = 0, fail_p99 = 0;
  int fails_in_row = 0;
  std::string ladder_text;
  for (int k = 0; k < kLadderSteps && fails_in_row < 2; ++k) {
    const double rate = 2 * kNominalRps * std::pow(kLadderRatio, k);
    std::vector<Sent> step = Schedule(rng, rate, kLadderStepMs,
                                      "s" + std::to_string(k) + "-", combos);
    Drive(conns, step, tracer);
    const Phase p = Summarize(step, combos, kLadderStepMs);
    const bool valid = p.late_p99 <= kMaxGeneratorLateMs;
    const bool pass =
        p.p99 <= kLatencyLimitMs && p.completed_share >= 0.95 && p.sheds == 0;
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%.1f/s p99=%.1fms done=%.3f shed=%zu late=%.2fms %s; ", rate,
                  p.p99, p.completed_share, p.sheds, p.late_p99,
                  !valid ? "invalid" : pass ? "pass" : "fail");
    ladder_text += row;
    steps.push_back(std::move(step));
    if (!valid) continue;
    if (pass) {
      pass_rate = rate;
      pass_p99 = p.p99;
      fails_in_row = 0;
    } else if (fails_in_row++ == 0) {
      fail_rate = rate;
      fail_p99 = p.p99;
    }
  }
  if (fails_in_row < 2) fail_rate = 0;  // the top of the ladder passed
  double max_rate = pass_rate;
  if (fail_rate > 0 && pass_rate == 0) {
    // Already the first valid step fails: scale it by how far it missed.
    max_rate = fail_rate / kLadderRatio *
               std::min(1.0, kLatencyLimitMs / std::max(fail_p99, 1.0));
  } else if (fail_rate > 0 && std::isfinite(fail_p99) &&
             fail_p99 > kLatencyLimitMs) {
    // Where p99 crosses the limit between the last passing and the first
    // failing rate, interpolated in log-log space.
    const double t = (std::log(kLatencyLimitMs) - std::log(pass_p99)) /
                     (std::log(fail_p99) - std::log(pass_p99));
    max_rate = pass_rate * std::pow(fail_rate / pass_rate, std::clamp(t, 0.0, 1.0));
  }

  conns.clear();
  const std::string log = daemon.Stop();
  const std::map<std::string, double> drain = ParseDrainStats(log);

  // Output checks, outside every timed region: each answer against an
  // in-process evaluation of the same request.
  const std::string scratch = dir + "/result.bin";
  for (Combo& combo : combos) {
    std::string blob;
    if (!RunInProcess(root, combo, scratch, &combo.reference, &blob)) {
      report.Fail(combo.warm_id + ": in-process evaluation failed");
    }
  }
  for (const Sent& s : nominal) {
    ++report.attempted;
    const std::string why = CheckResult(options, s, combos[s.combo]);
    if (!why.empty()) report.Fail(s.id + ": " + why);
    report.digests.push_back(Fnv1a(s.result ? s.payload : "-"));
  }
  // Ladder steps probe overload: sheds and late answers there are the
  // measurement; only a wrong answer is a failure.
  for (const auto& step : steps) {
    for (const Sent& s : step) {
      ++report.attempted;
      const std::string why = CheckResult(options, s, combos[s.combo]);
      if (!why.empty() && s.result) report.Fail(s.id + ": " + why);
    }
  }

  report.E2E("setup_s", setup_s, "s");
  report.E2E("answer_p50_ms", at_nominal.p50, "ms");
  report.E2E("answer_p90_ms", at_nominal.p90, "ms");
  report.E2E("queries_per_s", at_nominal.query_rate, "1/s");
  report.E2E("chase_p50_ms", at_nominal.chase_p50, "ms");
  report.E2E("chase_p90_ms", at_nominal.chase_p90, "ms");
  report.E2E("facts_per_s", at_nominal.facts_per_s, "1/s");
  report.E2E("max_rate_rps", max_rate, "1/s");
  report.E2E("peak_rss_mb", daemon_rss, "MB");
  // Reported with the others but not in BENCHMARK.json: the in-process
  // workloads have too few samples for a p99, and the ladder's result
  // swings with the host's speed.
  report.E2E("answer_p99_ms", at_nominal.p99, "ms");
  report.sizes["programs"] = static_cast<double>(programs.size());
  report.sizes["closed_nodes"] = kClosedNodes;
  report.sizes["chase_nodes"] = kChaseNodes;
  report.sizes["guarded_facts"] = kGuardedFacts;
  report.sizes["nominal_rps"] = kNominalRps;
  report.sizes["connections"] = kConnections;
  report.sizes["latency_limit_ms"] = kLatencyLimitMs;
  report.counts["nominal_requests"] = static_cast<double>(nominal.size());
  report.counts["ladder_steps"] = static_cast<double>(steps.size());
  report.counts["generator_late_p99_ms"] = at_nominal.late_p99;
  report.notes.push_back({"ladder", ladder_text});

  if (options.trace) {
    // Per-layer probes: the daemon's steps redone in this process on the
    // workload's own requests and programs.
    std::map<std::string, gqe::Program> parsed;
    double parse_ms = 0, classify_ms = 0;
    for (const PoolProgram& p : programs) {
      gqe::ParseResult result;
      parse_ms += Timed(tracer, "parser.ParseProgram", "parser", -1,
                        [&] { result = gqe::ParseProgram(p.text); });
      classify_ms += Timed(tracer, "tgd.classify", "tgd", -1, [&] {
        volatile bool g = gqe::IsGuardedSet(result.program.tgds);
        volatile bool t = gqe::IsObliviousChaseTerminating(result.program.tgds);
        (void)g;
        (void)t;
      });
      parsed[p.file] = std::move(result.program);
    }
    std::vector<double> frame_us, journal_us, worker[kKinds], verify[kKinds];
    double worker_total = 0, request_parse_total = 0;
    gqe::RequestJournal journal;
    gqe::JournalOptions journal_options;
    journal_options.fsync_each_record = false;
    journal.Open(dir + "/probe-journal", journal_options, nullptr);
    for (size_t i = 0; i < combos.size(); ++i) {
      const Combo& combo = combos[i];
      const int64_t op = static_cast<int64_t>(i);
      frame_us.push_back(1000.0 * Timed(tracer, "net.frame", "net", op, [&] {
        for (const std::string* payload : {&combo.warm_line, &combo.result_line}) {
          gqe::FrameDecoder decoder;
          decoder.Feed(gqe::EncodeFrame(gqe::FrameType::kRequest, *payload));
          gqe::Frame frame;
          std::string decode_error;
          decoder.Next(&frame, &decode_error);
        }
      }));
      gqe::WorkerResult result;
      std::string blob;
      const double ms = Timed(tracer, "serve.RunWorkerInProcess", "serve", op, [&] {
        RunInProcess(root, combo, scratch, &result, &blob);
      });
      worker[static_cast<int>(combo.kind)].push_back(ms);
      worker_total += ms;
      std::string text;
      gqe::ReadFileBytes(root + "/" + combo.program, &text);
      request_parse_total += Timed(tracer, "parser.ParseProgram", "parser", op,
                                   [&] { gqe::ParseProgram(text); });
      bool verified = false;
      verify[static_cast<int>(combo.kind)].push_back(Timed(tracer, "verify.check", "verify", op, [&] {
        verified = VerifyLikeSupervisor(parsed[combo.program], combo, result);
      }));
      if (!verified) report.Fail(combo.warm_id + ": witness rejected in process");
      journal_us.push_back(1000.0 * Timed(tracer, "serve.journal", "serve", op, [&] {
        journal.AppendAdmitted(combo.warm_id, combo.warm_line);
        journal.AppendResult(combo.warm_id, gqe::TerminalState::kCompleted,
                             combo.result_line, blob);
      }));
    }
    std::vector<double> spawn_ms;
    for (int i = 0; i < 32; ++i) {
      spawn_ms.push_back(Timed(tracer, "serve.WorkerProcess::Spawn", "serve", i, [&] {
        gqe::WorkerProcess worker_process;
        std::string spawn_error;
        if (gqe::WorkerProcess::Spawn(
                gqe::WorkerLimits{},
                [](int result_fd, int) {
                  return gqe::WriteAllToFd(result_fd, "pong") ? 0 : 1;
                },
                &worker_process, &spawn_error)) {
          worker_process.WaitReaped(5000.0);
        }
      }));
    }
    // Mix weights of the fresh query kinds (cq 40%, cqs 20%, omq 10%).
    double query_work = 0;
    for (const auto& [kind, weight] :
         {std::pair{kCq, 0.4 / 0.7}, {kCqs, 0.2 / 0.7}, {kOmq, 0.1 / 0.7}}) {
      const int k = static_cast<int>(kind);
      query_work +=
          weight * (Percentile(worker[k], 0.5) + Percentile(verify[k], 0.5));
    }
    const double attributed = Mean(frame_us) / 1000.0 + Percentile(spawn_ms, 0.5) +
                              query_work + Mean(journal_us) / 1000.0;
    report.Layer("parser.parse_ms", parse_ms, "ms");
    report.Layer("tgd.classify_us", 1000.0 * classify_ms, "us");
    report.Layer("net.frame_us", Mean(frame_us), "us");
    report.Layer("serve.spawn_ms", Percentile(spawn_ms, 0.5), "ms");
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = gqe::RequestKindName(static_cast<Kind>(k));
      report.Layer("serve.worker_ms." + name,
                   Percentile(worker[k], 0.5), "ms");
      report.Layer("verify.check_ms." + name,
                   Percentile(verify[k], 0.5), "ms");
    }
    report.Layer("serve.parse_share",
                 worker_total > 0 ? request_parse_total / worker_total : 0, "ratio");
    report.Layer("serve.journal_append_us", Mean(journal_us), "us");
    report.Layer("serve.unattributed_ms", at_nominal.p50 - attributed, "ms");
    for (const char* key : {"completed", "failed", "degraded", "shed_overloaded",
                            "coalesced", "journal_hits"}) {
      auto it = drain.find(key);
      report.Layer(std::string("serve.") + key, it == drain.end() ? 0 : it->second,
                   "count");
    }
    report.Layer("net.gen_late_p99_ms", at_nominal.late_p99, "ms");
    tracer.WriteChrome(options.out_dir + "/trace-serve-mixed.json");
  }
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench

#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <utility>

#include "util/log.hpp"

namespace tw::serve {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw ServeError(ServeErrc::kIo,
                     "fcntl(O_NONBLOCK) failed: " +
                         std::string(std::strerror(errno)));
}

struct ProgressItem {
  std::uint64_t job = 0;
  int replica = 0;
  FlowProgress progress;
};

/// The worker-thread -> daemon-thread handoff: callbacks append under the
/// mutex and poke the self-pipe; the poll loop drains both vectors. This
/// is the only state the daemon shares with other threads.
struct EventQueue {
  std::mutex mu;
  std::vector<pool::ExecutorResult> done;
  std::vector<ProgressItem> progress;
  int wake_fd = -1;

  void wake() const {
    const std::uint8_t b = 1;
    // EAGAIN means the pipe already holds a pending wake; that is enough.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &b, 1);
  }
};

struct Conn {
  int fd = -1;
  FrameParser parser;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::vector<std::uint64_t> watching;  ///< jobs this client awaits
  bool want_progress = false;
  int idle = 0;  ///< consecutive poll-timeout ticks with no bytes read
};

}  // namespace

struct Daemon::Impl {
  DaemonConfig cfg;
  int listen_fd = -1;
  bool published = false;  ///< the socket path is this daemon's
  int wake_r = -1;
  int wake_w = -1;
  std::shared_ptr<EventQueue> events;
  std::unique_ptr<Scheduler> scheduler;
  std::map<int, Conn> conns;
  std::map<std::uint64_t, std::vector<int>> watchers;  ///< job -> conn fds
  std::vector<KillSpec> kill_at;
  std::atomic<bool> stop{false};
  bool stopping = false;
  std::int64_t progress_dropped = 0;  ///< events shed off slow readers
  std::int64_t reaped = 0;            ///< idle connections reaped

  ~Impl() {
    for (auto& [fd, c] : conns) ::close(fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    std::error_code ec;
    if (published) std::filesystem::remove(cfg.socket_path, ec);
  }

  /// The deterministic kill switch: std::_Exit skips unwinding, flushes
  /// and destructors — from the filesystem's and the clients' point of
  /// view this is SIGKILL.
  void maybe_kill(const char* site) {
    for (KillSpec& k : kill_at)
      if (k.site == site && --k.count == 0) {
        log_warn("armed kill point '", site, "' reached; exiting hard");
        std::_Exit(137);
      }
  }

  /// Binds and listens under a temporary name next to the socket path,
  /// then renames the listening socket onto the path: the path exists
  /// only while a daemon listens on it, so a client never finds a socket
  /// that refuses it, and the rename replaces a stale file left by a
  /// killed predecessor atomically.
  void setup_socket() {
    const std::string& path = cfg.socket_path;
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    sockaddr_un addr{};
    if (tmp.size() >= sizeof addr.sun_path)
      throw ServeError(ServeErrc::kIo,
                       "socket path too long: " + path + " (its temporary "
                       "name " + tmp + " must be shorter than " +
                       std::to_string(sizeof addr.sun_path) + " bytes)");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, tmp.c_str(), tmp.size() + 1);

    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
      throw ServeError(ServeErrc::kIo, "socket() failed: " +
                                           std::string(std::strerror(errno)));
    // A predecessor with this pid, killed before its rename, left the
    // temporary name behind.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    const auto fail = [&tmp](const std::string& call) {
      const std::string why = std::strerror(errno);
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw ServeError(ServeErrc::kIo, call + " failed: " + why);
    };
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0)
      fail("bind(" + tmp + ")");
    if (::listen(listen_fd, 64) < 0) fail("listen(" + tmp + ")");
    // A listening socket, not a written file: recover::write_atomic does
    // not apply.
    if (::rename(tmp.c_str(), path.c_str()) < 0)  // lint: allow(atomic-write)
      fail("rename(" + tmp + ", " + path + ")");
    published = true;
    set_nonblocking(listen_fd);

    int pipefd[2];
    if (::pipe(pipefd) < 0)
      throw ServeError(ServeErrc::kIo, "pipe() failed: " +
                                           std::string(std::strerror(errno)));
    wake_r = pipefd[0];
    wake_w = pipefd[1];
    set_nonblocking(wake_r);
    set_nonblocking(wake_w);
    events->wake_fd = wake_w;
  }

  // --- outbound ------------------------------------------------------------

  void queue_frame(Conn& c, const Message& m) {
    // Slow-reader defense: a connection whose outgoing buffer is past its
    // bound stops receiving progress events (dropped, counted). Every
    // other frame — acks, rejects, results — is queued regardless:
    // results are never dropped, so the buffer's true bound is
    // max_out_bytes plus the non-progress frames still owed.
    if (std::holds_alternative<ProgressEvent>(m) &&
        c.out.size() - c.out_pos >= cfg.max_out_bytes) {
      ++progress_dropped;
      return;
    }
    const std::vector<std::uint8_t> frame = encode_frame(m);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    flush(c);
  }

  /// Best-effort immediate write; the rest rides on POLLOUT. Returns
  /// false when the connection is dead.
  bool flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                 MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone (EPIPE/ECONNRESET/...)
    }
    c.out.clear();
    c.out_pos = 0;
    return true;
  }

  void broadcast(std::uint64_t job, const Message& m, bool progress_only) {
    const auto it = watchers.find(job);
    if (it == watchers.end()) return;
    for (const int fd : it->second) {
      const auto cit = conns.find(fd);
      if (cit == conns.end()) continue;
      if (progress_only && !cit->second.want_progress) continue;
      queue_frame(cit->second, m);
    }
  }

  // --- connection lifecycle ------------------------------------------------

  void accept_conns() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient failure: poll again
      set_nonblocking(fd);
      Conn c;
      c.fd = fd;
      conns.emplace(fd, std::move(c));
    }
  }

  /// `cancel_watched` distinguishes a client that *left* (voluntary
  /// disconnect / dead socket: its jobs lose a watcher and may be
  /// cooperatively cancelled) from one the daemon *reaped* for idling:
  /// a reaped client's jobs were journaled and paid for — they run to
  /// completion into the cache, where the client's reconnect finds them.
  void drop_conn(int fd, bool cancel_watched) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    // Client-disconnect cooperative cancel: a job whose *last* watcher
    // vanished has nobody waiting — wind it down and keep the partial
    // result. Jobs with other watchers, and journal-recovered jobs
    // (which never had a watcher), are untouched.
    for (const std::uint64_t job : it->second.watching) {
      const auto w = watchers.find(job);
      if (w == watchers.end()) continue;
      std::erase(w->second, fd);
      if (w->second.empty()) {
        watchers.erase(w);
        if (cancel_watched && scheduler->cancel(job))
          log_info("job ", job,
                   ": last watcher disconnected; cancelling cooperatively");
      }
    }
    ::close(fd);
    conns.erase(it);
  }

  // --- inbound -------------------------------------------------------------

  /// Returns false when the connection must be dropped.
  bool handle(Conn& c, Message&& m) {
    if (auto* req = std::get_if<SubmitRequest>(&m)) {
      if (stopping) {
        queue_frame(c, RejectReply{RejectCode::kShuttingDown,
                                   "daemon is draining"});
        return true;
      }
      const bool want_progress = req->want_progress;
      Submitted s = scheduler->submit(*req);
      switch (s.kind) {
        case Submitted::Kind::kRejected:
          log_info("submission rejected (", to_string(s.reject.code),
                   "): ", s.reject.detail);
          queue_frame(c, s.reject);
          return true;
        case Submitted::Kind::kCached:
          log_info("job ", s.job, ": served from result cache");
          queue_frame(c, SubmitReply{s.job, Disposition::kCached});
          queue_frame(c, s.cached);
          return true;
        case Submitted::Kind::kAccepted:
          if (s.disposition == Disposition::kFresh)
            maybe_kill("post-journal");
          c.watching.push_back(s.job);
          c.want_progress = c.want_progress || want_progress;
          watchers[s.job].push_back(c.fd);
          log_info("job ", s.job, ": accepted (",
                   to_string(s.disposition), "), ",
                   scheduler->in_flight(), " in flight");
          queue_frame(c, SubmitReply{s.job, s.disposition});
          maybe_kill("post-ack");
          return true;
      }
      return true;
    }
    if (auto* q = std::get_if<QueryRequest>(&m)) {
      if (const std::optional<JobState> st = scheduler->query(q->job))
        queue_frame(c, StatusReply{q->job, *st});
      else
        queue_frame(c, RejectReply{RejectCode::kUnknownJob,
                                   "job " + std::to_string(q->job)});
      return true;
    }
    if (auto* cx = std::get_if<CancelRequest>(&m)) {
      if (scheduler->cancel(cx->job))
        queue_frame(c, StatusReply{cx->job, JobState::kRunning});
      else
        queue_frame(c, RejectReply{RejectCode::kUnknownJob,
                                   "job " + std::to_string(cx->job)});
      return true;
    }
    if (std::get_if<PingRequest>(&m) != nullptr) {
      queue_frame(c, PongReply{});
      return true;
    }
    if (std::get_if<StatsRequest>(&m) != nullptr) {
      StatsReply s = scheduler->stats();
      s.progress_dropped = progress_dropped;
      s.reaped = reaped;
      queue_frame(c, s);
      return true;
    }
    if (std::get_if<ShutdownRequest>(&m) != nullptr) {
      queue_frame(c, PongReply{});
      stop.store(true, std::memory_order_relaxed);
      return true;
    }
    // A server-to-client message arriving here is a protocol violation.
    log_warn("dropping connection: unexpected ",
             to_string(type_of(m)), " frame");
    return false;
  }

  /// Reads whatever the socket has; returns false to drop the connection.
  bool service_read(Conn& c) {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n > 0) {
        c.idle = 0;  // any inbound byte proves the client alive
        try {
          c.parser.feed(std::span<const std::uint8_t>(buf,
                                                      static_cast<std::size_t>(n)));
        } catch (const ServeError& e) {
          // Malformed stream: this connection is unrecoverable, the
          // daemon is fine.
          log_warn("dropping connection: ", e.what());
          return false;
        }
        continue;
      }
      if (n == 0) return false;  // orderly EOF
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    while (c.parser.has_message()) {
      Message m = c.parser.take_message();
      try {
        if (!handle(c, std::move(m))) return false;
      } catch (const ServeError& e) {
        // Typed serve failures (journal IO, ...) reject the request but
        // keep both the connection and the daemon alive.
        log_warn("request failed: ", e.what());
        queue_frame(c, RejectReply{RejectCode::kBadRequest, e.what()});
      }
    }
    return true;
  }

  // --- executor events -----------------------------------------------------

  void drain_events() {
    std::vector<pool::ExecutorResult> done;
    std::vector<ProgressItem> progress;
    {
      std::lock_guard<std::mutex> lock(events->mu);
      done.swap(events->done);
      progress.swap(events->progress);
    }
    for (const ProgressItem& p : progress) {
      maybe_kill("progress");
      ProgressEvent ev;
      ev.job = p.job;
      ev.replica = p.replica;
      ev.phase = static_cast<std::uint8_t>(p.progress.phase);
      ev.step = p.progress.step;
      ev.pass = p.progress.pass;
      ev.t = p.progress.t;
      ev.cost = p.progress.cost;
      broadcast(p.job, ev, /*progress_only=*/true);
    }
    for (pool::ExecutorResult& r : done) {
      maybe_kill("pre-finish");
      const std::uint64_t job = r.job;
      const ResultEvent ev = scheduler->finish(std::move(r));
      maybe_kill("post-finish");
      log_info("job ", job, ": ", to_string(ev.status),
               ev.status == JobStatus::kFailed
                   ? " (" + ev.detail + ")"
                   : ", teil=" + std::to_string(ev.final_teil));
      broadcast(job, ev, /*progress_only=*/false);
      watchers.erase(job);
    }
  }

  // --- the loop ------------------------------------------------------------

  int run() {
    log_info("twserved listening on ", cfg.socket_path, "; state in ",
             cfg.scheduler.state_dir);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds;
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_r, POLLIN, 0});
      for (const auto& [fd, c] : conns)
        fds.push_back({fd,
                       static_cast<short>(POLLIN |
                                          (c.out_pos < c.out.size()
                                               ? POLLOUT : 0)),
                       0});

      // The poll timeout is the daemon's clock: one expiry = one tick of
      // poll_tick_ms (the only notion of elapsed time in src/ — actual
      // clock reads are banned by lint). Idle deadlines count these.
      const int timeout =
          cfg.idle_ticks > 0 ? std::max(1, cfg.poll_tick_ms) : -1;
      const int rc = ::poll(fds.data(), fds.size(), timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw ServeError(ServeErrc::kIo, "poll() failed: " +
                                             std::string(std::strerror(errno)));
      }
      if (rc == 0) {
        // Tick: age every connection; reap the ones past the idle
        // deadline. Their watched jobs keep running (see drop_conn).
        std::vector<int> expired;
        for (auto& [fd, c] : conns)
          if (++c.idle >= cfg.idle_ticks) expired.push_back(fd);
        for (const int fd : expired) {
          log_info("reaping idle connection (", cfg.idle_ticks,
                   " tick(s) of ", cfg.poll_tick_ms,
                   "ms); its jobs keep running");
          ++reaped;
          drop_conn(fd, /*cancel_watched=*/false);
        }
        continue;
      }

      if ((fds[0].revents & POLLIN) != 0) accept_conns();
      if ((fds[1].revents & POLLIN) != 0) {
        std::uint8_t sink[64];
        while (::read(wake_r, sink, sizeof sink) > 0) {}
      }
      drain_events();

      std::vector<int> dead;
      for (std::size_t i = 2; i < fds.size(); ++i) {
        const pollfd& p = fds[i];
        const auto it = conns.find(p.fd);
        if (it == conns.end()) continue;
        Conn& c = it->second;
        bool alive = true;
        if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (p.revents & POLLIN) == 0)
          alive = false;
        if (alive && (p.revents & POLLIN) != 0) alive = service_read(c);
        if (alive && (p.revents & POLLOUT) != 0) alive = flush(c);
        if (!alive) dead.push_back(p.fd);
      }
      for (const int fd : dead) drop_conn(fd, /*cancel_watched=*/true);
    }
    return drain_and_exit();
  }

  /// Graceful shutdown: cancel in-flight jobs, join the executor (its
  /// final on_done callbacks land in the event queue during the join),
  /// complete the bookkeeping for each, deliver the last events, close.
  int drain_and_exit() {
    stopping = true;
    log_info("twserved draining: ", scheduler->in_flight(),
             " job(s) in flight");
    scheduler->shutdown();
    drain_events();
    for (auto& [fd, c] : conns) flush(c);
    log_info("twserved exiting cleanly");
    return 0;
  }
};

Daemon::Daemon(DaemonConfig cfg) : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
  impl_->kill_at = impl_->cfg.kill_at;
  impl_->events = std::make_shared<EventQueue>();
  impl_->setup_socket();

  const std::shared_ptr<EventQueue> ev = impl_->events;
  pool::PoolExecutor::Hooks hooks;
  hooks.on_done = [ev](pool::ExecutorResult r) {
    {
      std::lock_guard<std::mutex> lock(ev->mu);
      ev->done.push_back(std::move(r));
    }
    ev->wake();
  };
  hooks.on_progress = [ev](std::uint64_t job, int replica,
                           const FlowProgress& pg) {
    {
      std::lock_guard<std::mutex> lock(ev->mu);
      ev->progress.push_back(ProgressItem{job, replica, pg});
    }
    ev->wake();
  };
  impl_->scheduler = std::make_unique<Scheduler>(impl_->cfg.scheduler,
                                                 std::move(hooks));
}

Daemon::~Daemon() = default;

int Daemon::run() { return impl_->run(); }

void Daemon::request_stop() {
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->events->wake();
}

}  // namespace tw::serve

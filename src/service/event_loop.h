// Readiness polling for the codad I/O thread.
//
// `Poller` wraps epoll (Linux) with a poll(2) fallback selected at runtime
// (non-Linux builds or epoll_create failure). Both backends are level-triggered: a
// socket with unread bytes or unflushed output keeps reporting ready, so
// the event loop never needs to remember partial progress across waits.
//
// `WakeupFd` is the cross-thread doorbell: engine threads notify() it after
// posting completions and the I/O thread holds its fd in the poller, so a
// blocked epoll_wait returns as soon as any shard finishes work. eventfd on
// Linux, a nonblocking self-pipe elsewhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace coda::service {

struct PollEvent {
  uint64_t tag = 0;       // caller-chosen id registered with add()
  bool readable = false;
  bool writable = false;
  bool hangup = false;    // EPOLLHUP/EPOLLERR — drain then drop the fd
};

class Poller {
 public:
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool ok() const { return backend_ok_; }
  bool using_epoll() const { return epoll_fd_ >= 0; }

  bool add(int fd, uint64_t tag, bool want_read, bool want_write);
  bool mod(int fd, uint64_t tag, bool want_read, bool want_write);
  void del(int fd);

  // Blocks up to timeout_ms (0 polls, negative blocks indefinitely) and
  // fills `out` (cleared first). Returns the event count, 0 on timeout,
  // -1 on a non-EINTR error.
  int wait(int timeout_ms, std::vector<PollEvent>* out);

 private:
  struct Watch {
    int fd = -1;
    uint64_t tag = 0;
    bool want_read = false;
    bool want_write = false;
  };

  int epoll_fd_ = -1;        // < 0 selects the poll(2) backend
  bool backend_ok_ = false;
  std::vector<Watch> watches_;      // poll backend registry
  std::vector<uint64_t> scratch_;   // epoll_event storage (opaque here)
};

class WakeupFd {
 public:
  WakeupFd();
  ~WakeupFd();
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  bool ok() const { return read_fd_ >= 0; }
  int fd() const { return read_fd_; }

  // Wakes a poller blocked on fd(). Safe from any thread; coalesces.
  void notify();
  // Consumes pending notifications so level-triggered polling settles.
  void drain();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;  // == read_fd_ for eventfd
  std::atomic<bool> armed_{false};  // wakeup already pending in the fd
};

}  // namespace coda::service

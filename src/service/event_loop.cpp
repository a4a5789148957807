#include "service/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define CODA_SERVICE_HAVE_EPOLL 1
#else
#define CODA_SERVICE_HAVE_EPOLL 0
#endif

namespace coda::service {

namespace {

#if CODA_SERVICE_HAVE_EPOLL
uint32_t epoll_mask(bool want_read, bool want_write) {
  uint32_t events = 0;
  if (want_read) {
    events |= EPOLLIN;
  }
  if (want_write) {
    events |= EPOLLOUT;
  }
  return events;
}
#endif

short poll_mask(bool want_read, bool want_write) {
  short events = 0;
  if (want_read) {
    events |= POLLIN;
  }
  if (want_write) {
    events |= POLLOUT;
  }
  return events;
}

}  // namespace

Poller::Poller() {
#if CODA_SERVICE_HAVE_EPOLL
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
#endif
  backend_ok_ = true;  // the poll backend needs no setup
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

bool Poller::add(int fd, uint64_t tag, bool want_read, bool want_write) {
#if CODA_SERVICE_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return false;
    }
  }
#endif
  // The registry is kept in both backends: epoll needs it only for del()
  // symmetry, but keeping it uniform makes mod() failures diagnosable.
  watches_.push_back({fd, tag, want_read, want_write});
  return true;
}

bool Poller::mod(int fd, uint64_t tag, bool want_read, bool want_write) {
  for (auto& w : watches_) {
    if (w.fd == fd) {
      w.tag = tag;
      w.want_read = want_read;
      w.want_write = want_write;
#if CODA_SERVICE_HAVE_EPOLL
      if (epoll_fd_ >= 0) {
        epoll_event ev{};
        ev.events = epoll_mask(want_read, want_write);
        ev.data.u64 = tag;
        return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
      }
#endif
      return true;
    }
  }
  return false;
}

void Poller::del(int fd) {
#if CODA_SERVICE_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
  for (size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].fd == fd) {
      watches_[i] = watches_.back();
      watches_.pop_back();
      return;
    }
  }
}

int Poller::wait(int timeout_ms, std::vector<PollEvent>* out) {
  out->clear();
#if CODA_SERVICE_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    // scratch_ doubles as raw storage for epoll_event (trivially copyable,
    // no alignment stricter than uint64_t on the platforms we build for).
    const size_t cap = watches_.empty() ? 16 : watches_.size() + 1;
    const size_t words =
        (cap * sizeof(epoll_event) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
    scratch_.resize(words);
    auto* events = reinterpret_cast<epoll_event*>(scratch_.data());
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, events, static_cast<int>(cap), timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return -1;
    }
    out->reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      PollEvent ev;
      ev.tag = events[i].data.u64;
      ev.readable = (events[i].events & EPOLLIN) != 0;
      ev.writable = (events[i].events & EPOLLOUT) != 0;
      ev.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(ev);
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(watches_.size());
  for (const auto& w : watches_) {
    pfds.push_back({w.fd, poll_mask(w.want_read, w.want_write), 0});
  }
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return -1;
  }
  for (size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) {
      continue;
    }
    PollEvent ev;
    ev.tag = watches_[i].tag;
    ev.readable = (pfds[i].revents & POLLIN) != 0;
    ev.writable = (pfds[i].revents & POLLOUT) != 0;
    ev.hangup = (pfds[i].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    out->push_back(ev);
  }
  return static_cast<int>(out->size());
}

WakeupFd::WakeupFd() {
#if CODA_SERVICE_HAVE_EPOLL
  const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (efd >= 0) {
    read_fd_ = efd;
    write_fd_ = efd;
    return;
  }
#endif
  int fds[2];
  if (::pipe(fds) == 0) {
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
  }
}

WakeupFd::~WakeupFd() {
  if (read_fd_ >= 0) {
    ::close(read_fd_);
  }
  if (write_fd_ >= 0 && write_fd_ != read_fd_) {
    ::close(write_fd_);
  }
}

void WakeupFd::notify() {
  if (write_fd_ < 0) {
    return;
  }
  // One syscall per doorbell ring, not per notify: once armed, further
  // notifies are already covered by the pending readable event.
  if (armed_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const uint64_t one = 1;
  ssize_t rc;
  do {
    rc = ::write(write_fd_, &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
  // EAGAIN means the counter/pipe is already pending a wakeup — coalesced.
}

void WakeupFd::drain() {
  if (read_fd_ < 0) {
    return;
  }
  // Disarm before reading: a notify() that lands mid-drain re-arms and
  // writes again, so its wakeup is never lost.
  armed_.store(false, std::memory_order_release);
  uint64_t buf[64];
  while (true) {
    const ssize_t n = ::read(read_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0 || static_cast<size_t>(n) < sizeof(buf)) {
      return;
    }
  }
}

}  // namespace coda::service

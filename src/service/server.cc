#include "service/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "service/net.h"

namespace pghive::service {

namespace {

SessionManager::Options ManagerOptions(const PghivedServer::Options& options) {
  SessionManager::Options manager_options;
  manager_options.max_sessions = options.max_sessions;
  manager_options.checkpoint_dir = options.checkpoint_dir;
  manager_options.checkpoint_every = options.checkpoint_every;
  return manager_options;
}

}  // namespace

PghivedServer::PghivedServer(Options options)
    : options_(std::move(options)),
      pool_(options_.threads),
      manager_(&pool_, ManagerOptions(options_)),
      handler_(&manager_) {}

PghivedServer::~PghivedServer() { Stop(); }

util::Status PghivedServer::Start() {
  // Restore checkpointed sessions before any client can connect, so a
  // restarted daemon serves every surviving tenant from the first request.
  // A corrupt checkpoint fails startup loudly instead of dropping state.
  util::Status restored = manager_.RestoreFromCheckpointDir();
  if (!restored.ok()) return restored;
  auto listen_fd = ListenTcp(options_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = *listen_fd;
  auto port = BoundPort(listen_fd_);
  if (!port.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  // The loop gets the fd by value: Stop() resets listen_fd_ while the loop
  // may still be between accept calls.
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return util::Status::Ok();
}

void PghivedServer::AcceptLoop(int listen_fd) {
  while (!stopping_.load()) {
    auto accepted = AcceptTcp(listen_fd);
    if (!accepted.ok()) {
      if (stopping_.load()) return;
      continue;  // EINTR or a transient accept failure.
    }
    const int fd = *accepted;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void PghivedServer::ServeConnection(int fd) {
  SocketStream stream(fd);
  while (!stopping_.load()) {
    auto line = stream.ReadLine();
    if (!line.ok()) break;  // Disconnect or IO error ends the connection.
    if (line->empty()) continue;
    Response response;
    auto request = ParseRequestLine(*line);
    if (!request.ok()) {
      response.status = request.status();
    } else {
      auto body_bytes = RequestBodyBytes(*request);
      if (!body_bytes.ok()) {
        response.status = body_bytes.status();
      } else {
        if (*body_bytes > 0) {
          util::Status read = stream.ReadExact(*body_bytes, &request->body);
          if (!read.ok()) break;  // Mid-body disconnect: no way to recover.
        }
        response = handler_.Handle(*request);
      }
    }
    if (!stream.WriteAll(FormatResponse(response)).ok()) break;
  }
  // The fd is owned (and closed) by `stream`; drop it from the nudge list.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection_fds_.erase(
      std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
      connection_fds_.end());
}

void PghivedServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // Unblocks accept() so the accept thread can observe stopping_.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Nudge connections blocked in recv; they finish the in-flight request
    // (ServeConnection rechecks stopping_ before reading the next one).
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // Queue-draining shutdown: every accepted batch commits before exit.
  manager_.DrainAll();
  // Then one final checkpoint of every live session, so a SIGTERM'd daemon
  // restarts exactly where the drain left it. Best effort: shutdown must
  // complete even when the disk does not cooperate.
  util::Status checkpointed = manager_.CheckpointAll();
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "pghived: shutdown checkpoint failed: %s\n",
                 checkpointed.ToString().c_str());
  }
}

}  // namespace pghive::service

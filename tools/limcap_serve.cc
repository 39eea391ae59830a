// limcap_serve: the mediator as a daemon. Listens on 127.0.0.1, speaks
// the length-prefixed JSON protocol of mediator/serve_protocol.h, and
// answers many concurrent connection queries on a shared ServeSession —
// worker pool, admission control (kLoadShed), per-request deadlines, a
// server-wide fetch governor, and graceful drain on SIGTERM/SIGINT or a
// client "shutdown" message.
//
//   limcap_serve [--port N] [--scenario mixed|paper] [--seed N]
//                [--workers N] [--max-queue N] [--max-in-flight N]
//                [--per-source-in-flight N] [--no-coalesce]
//                [--record DIR] [--record-budget BYTES]
//
// --record DIR captures every successfully answered request's source
// traffic as DIR/req-NNNNN.lcap (replay::ReplayArtifact, replayable
// offline with `limcap_explain --replay`), plus a record_index.json
// written once on drain. --record-budget bounds the total artifact
// bytes (default 256 MiB); over-budget captures are dropped whole.
//
// --port 0 (the default) binds an ephemeral port. Once listening the
// daemon prints "LISTENING <port>" on stdout and flushes, so a harness
// can start it with --port 0 and scrape the real port.
//
// The catalog is built in-process from the scenario: "mixed" is the
// workload generator's merged mixed catalog (paper Example 2.1 + chain +
// random topologies; clients regenerate the matching queries from the
// same --seed), "paper" is Example 2.1 alone.
//
// Shutdown: SIGTERM, SIGINT, or a "shutdown" frame stop admission, drain
// every accepted request (new submissions are refused with kLoadShed),
// answer pending "shutdown" frames with "bye", and exit 0 after printing
// a final stats line.

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "mediator/mediator.h"
#include "mediator/serve_protocol.h"
#include "mediator/serve_session.h"
#include "paperdata/paper_examples.h"
#include "workload/generator.h"

namespace {

using limcap::Json;
using limcap::Status;
using limcap::mediator::Mediator;
using limcap::mediator::ParseWireRequest;
using limcap::mediator::ReadFrame;
using limcap::mediator::RenderResponse;
using limcap::mediator::RenderStatus;
using limcap::mediator::ServeOptions;
using limcap::mediator::ServeResponse;
using limcap::mediator::ServeSession;
using limcap::mediator::WireRequest;
using limcap::mediator::WriteFrame;

constexpr const char* kUsage =
    "usage: limcap_serve [--port N] [--scenario mixed|paper] [--seed N]\n"
    "                    [--workers N] [--max-queue N] [--max-in-flight N]\n"
    "                    [--per-source-in-flight N] [--no-coalesce]\n"
    "                    [--adaptive]\n"
    "                    [--record DIR] [--record-budget BYTES]\n";

/// Self-pipe for signal-safe shutdown: the handler writes one byte, the
/// poll loop wakes. Also written by connection readers on a "shutdown"
/// frame, so both paths drain identically.
int g_shutdown_pipe[2] = {-1, -1};

void RequestShutdown() {
  char byte = 0;
  ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
  (void)n;
}

void HandleSignal(int) { RequestShutdown(); }

/// One client connection: a reader thread submitting to the session,
/// responses written back from worker callbacks under the write mutex
/// (frames from concurrent queries must not interleave).
struct Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::thread reader;
  /// Set when this connection sent a "shutdown" frame; main answers it
  /// with "bye" after the drain.
  std::atomic<bool> wants_bye{false};
  std::atomic<uint64_t> bye_id{0};
};

void WriteReply(const std::shared_ptr<Connection>& connection,
                const Json& reply) {
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  // A failed write (client gone) is the client's problem; the reader
  // will see the close and exit.
  (void)WriteFrame(connection->fd, reply.Dump());
}

Json ErrorReply(uint64_t id, Status status) {
  ServeResponse response;
  response.report = std::move(status);
  return RenderResponse(id, response);
}

void ReaderLoop(std::shared_ptr<Connection> connection,
                ServeSession* session) {
  for (;;) {
    limcap::Result<std::string> frame = ReadFrame(connection->fd);
    if (!frame.ok()) {
      if (frame.status().code() == limcap::StatusCode::kProtocolError) {
        // Tell the peer why before closing: a framing violation is
        // unrecoverable on this stream (we cannot resynchronize), but
        // it should not look like a silent hang-up.
        WriteReply(connection, ErrorReply(0, frame.status()));
      }
      return;  // clean EOF, peer reset, protocol violation, or shutdown
    }
    limcap::Result<Json> message = Json::Parse(*frame);
    if (!message.ok()) {
      WriteReply(connection, ErrorReply(0, message.status()));
      continue;
    }
    const std::string type = message->GetString("type");
    // A malformed id gets its error reply under id 0.
    const uint64_t id = message->GetUnsigned("id").value_or(0);
    if (type == "query") {
      limcap::Result<WireRequest> wire = ParseWireRequest(*message);
      if (!wire.ok()) {
        WriteReply(connection, ErrorReply(id, wire.status()));
        continue;
      }
      const uint64_t reply_id = wire->id;
      Status admitted = session->Submit(
          std::move(wire->request),
          [connection, reply_id](ServeResponse response) {
            WriteReply(connection, RenderResponse(reply_id, response));
          });
      if (!admitted.ok()) {
        // Load-shed at admission: the refusal is the response.
        WriteReply(connection, ErrorReply(reply_id, admitted));
      }
    } else if (type == "status") {
      WriteReply(connection, RenderStatus(id, *session));
    } else if (type == "shutdown") {
      connection->bye_id = id;
      connection->wants_bye = true;
      RequestShutdown();
    } else {
      WriteReply(connection,
                 ErrorReply(id, Status::InvalidArgument(
                                    "unknown message type \"" + type + "\"")));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string scenario = "mixed";
  uint64_t seed = 1;
  ServeOptions serve_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "limcap_serve: " << arg << " needs an argument\n"
                  << kUsage;
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--workers") {
      serve_options.workers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--max-queue") {
      serve_options.max_queue = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--max-in-flight") {
      serve_options.governor.max_in_flight =
          std::strtoul(next(), nullptr, 10);
    } else if (arg == "--per-source-in-flight") {
      serve_options.governor.per_source_max_in_flight =
          std::strtoul(next(), nullptr, 10);
    } else if (arg == "--no-coalesce") {
      serve_options.governor.cross_query_coalesce = false;
    } else if (arg == "--adaptive") {
      serve_options.exec.runtime.adaptive.enabled = true;
    } else if (arg == "--record") {
      serve_options.record_dir = next();
    } else if (arg == "--record-budget") {
      serve_options.record_budget_bytes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "limcap_serve: unknown flag " << arg << "\n" << kUsage;
      return 2;
    }
  }

  // Scenario catalogs. Both live on the stack for the daemon's lifetime;
  // the catalog never mutates while serving (ServeSession's contract).
  limcap::workload::MixedWorkload mixed;
  limcap::paperdata::PaperExample paper;
  const limcap::capability::SourceCatalog* catalog = nullptr;
  limcap::planner::DomainMap domains;
  if (scenario == "mixed") {
    limcap::workload::MixedWorkloadSpec spec;
    spec.seed = seed;
    spec.num_requests = 0;  // the daemon only needs the catalog
    auto workload = limcap::workload::GenerateMixedWorkload(spec);
    if (!workload.ok()) {
      std::cerr << "limcap_serve: workload generation failed: "
                << workload.status().ToString() << "\n";
      return 2;
    }
    mixed = std::move(*workload);
    catalog = &mixed.catalog;
    domains = mixed.domains;
  } else if (scenario == "paper") {
    paper = limcap::paperdata::MakeExample21();
    catalog = &paper.catalog;
    domains = paper.domains;
  } else {
    std::cerr << "limcap_serve: unknown scenario \"" << scenario << "\"\n"
              << kUsage;
    return 2;
  }

  if (!serve_options.record_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(serve_options.record_dir, ec);
    if (ec) {
      std::cerr << "limcap_serve: cannot create record dir "
                << serve_options.record_dir << ": " << ec.message() << "\n";
      return 2;
    }
    serve_options.record_scenario = scenario;
    serve_options.record_seed = seed;
  }

  Mediator mediator(catalog, domains);
  ServeSession session(&mediator, serve_options);

  if (::pipe(g_shutdown_pipe) != 0) {
    std::perror("limcap_serve: pipe");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("limcap_serve: socket");
    return 2;
  }
  int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::perror("limcap_serve: bind/listen");
    return 2;
  }
  socklen_t address_len = sizeof(address);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address),
                &address_len);
  std::printf("LISTENING %u\n", ntohs(address.sin_port));
  std::fflush(stdout);

  std::vector<std::shared_ptr<Connection>> connections;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_shutdown_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      std::perror("limcap_serve: poll");
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown requested
    if (fds[0].revents == 0) continue;
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) continue;
    auto connection = std::make_shared<Connection>();
    connection->fd = client_fd;
    connection->reader = std::thread(ReaderLoop, connection, &session);
    connections.push_back(std::move(connection));
  }

  // Graceful drain: stop listening, complete every accepted request
  // (readers still submit while we drain — refused with kLoadShed), then
  // answer pending shutdown frames and hang up.
  ::close(listen_fd);
  session.Shutdown();
  for (const std::shared_ptr<Connection>& connection : connections) {
    if (connection->wants_bye) {
      Json bye = Json::MakeObject();
      bye.Set("type", "bye");
      bye.Set("id", connection->bye_id.load());
      WriteReply(connection, bye);
    }
    ::shutdown(connection->fd, SHUT_RDWR);  // wake the blocked reader
  }
  for (const std::shared_ptr<Connection>& connection : connections) {
    connection->reader.join();
    ::close(connection->fd);
  }

  const ServeSession::Stats stats = session.stats();
  Json summary = Json::MakeObject();
  summary.Set("type", "exit");
  summary.Set("accepted", stats.accepted);
  summary.Set("rejected", stats.rejected);
  summary.Set("completed", stats.completed);
  summary.Set("failed", stats.failed);
  summary.Set("cross_query_coalesced", stats.governor.cross_query_coalesced);
  summary.Set("recorded", stats.recorded);
  summary.Set("record_dropped", stats.record_dropped);
  std::printf("%s\n", summary.Dump().c_str());
  return 0;
}

#ifndef SPLITWISE_SERVER_HTTP_SERVER_H_
#define SPLITWISE_SERVER_HTTP_SERVER_H_

/**
 * @file
 * A small loopback HTTP/1.1 server for the live serving front-end.
 *
 * Deliberately minimal: POSIX sockets only (no third-party
 * dependency), thread-per-connection, `Connection: close` on every
 * response, chunked transfer-encoding for token streams. The handler
 * runs on the connection's thread and may block for the stream's
 * lifetime; all serving-engine concurrency is behind core::Ingress,
 * so handlers only touch the thread-safe boundary.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace splitwise::server {

/** One parsed HTTP request (request line + body; headers dropped
 *  except Content-Length, which framing consumes). */
struct HttpRequest {
    std::string method;
    std::string path;
    std::string body;
};

/**
 * Response writer handed to the handler. Either writeFull() once, or
 * beginChunked() followed by writeChunk()s and endChunked(). Write
 * failures (client hung up) surface as false so streaming handlers
 * can cancel their upstream work.
 */
class ResponseWriter {
  public:
    explicit ResponseWriter(int fd) : fd_(fd) {}

    /** One-shot response with a full body. @return false when the
     *  client is gone. */
    bool writeFull(int status, const std::string& content_type,
                   const std::string& body);

    /** Start a chunked streaming response. */
    bool beginChunked(int status, const std::string& content_type);

    /** Send one chunk. @return false when the client is gone. */
    bool writeChunk(const std::string& data);

    /** Send the terminating zero chunk. */
    bool endChunked();

  private:
    bool sendAll(const char* data, std::size_t size);

    int fd_;
    bool broken_ = false;
};

/** Request handler: runs on the connection thread, may block. */
using HttpHandler =
    std::function<void(const HttpRequest&, ResponseWriter&)>;

/**
 * The listener: accepts loopback connections until stop(). Each
 * connection gets its own thread, reads one request, runs the
 * handler, and closes (Connection: close keeps framing trivial).
 */
class HttpServer {
  public:
    explicit HttpServer(HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start accepting.
     * @return false when the port cannot be bound.
     */
    bool start(int port);

    /** The bound port (after start). */
    int port() const { return port_; }

    /** Stop accepting, close the listener, join every connection. */
    void stop();

  private:
    /** One connection thread; finished is guarded by connMu_. */
    struct Connection {
        std::thread thread;
        bool finished = false;
    };

    void acceptLoop();
    void handleConnection(int fd);

    HttpHandler handler_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    /** Live connections; finished ones are joined at the next
     *  accept, so a long-lived server does not accumulate threads. */
    std::list<Connection> connections_;
};

}  // namespace splitwise::server

#endif  // SPLITWISE_SERVER_HTTP_SERVER_H_

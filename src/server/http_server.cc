#include "server/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace splitwise::server {

namespace {

/** Largest request header, and separately largest body, the server
 *  reads. A longer header drops the connection; a longer declared
 *  body is answered 413 before any of it is read. */
constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/** Receive and send deadline on every accepted socket. A client that
 *  goes quiet mid-request, or stops reading its response, for this
 *  long is dropped, so no connection holds its thread (and stop(),
 *  which joins every thread) forever. */
constexpr timeval kSocketDeadline{2, 0};

const char*
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 413: return "Payload Too Large";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

/** Parse a Content-Length value: one decimal number with optional
 *  blanks around it. @return false on anything else. An overflowing
 *  number saturates, which the body cap then rejects. */
bool
parseContentLength(const char* text, std::size_t* out)
{
    while (*text == ' ' || *text == '\t')
        ++text;
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    while (*end == ' ' || *end == '\t')
        ++end;
    if (*end != '\0')
        return false;
    *out = static_cast<std::size_t>(value);
    return true;
}

}  // namespace

bool
ResponseWriter::sendAll(const char* data, std::size_t size)
{
    if (broken_)
        return false;
    std::size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a client hang-up must surface as EPIPE, not
        // kill the process with SIGPIPE.
        const ssize_t n =
            ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            broken_ = true;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
ResponseWriter::writeFull(int status, const std::string& content_type,
                          const std::string& body)
{
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  status, statusText(status), content_type.c_str(),
                  body.size());
    if (!sendAll(head, std::strlen(head)))
        return false;
    return sendAll(body.data(), body.size());
}

bool
ResponseWriter::beginChunked(int status, const std::string& content_type)
{
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Transfer-Encoding: chunked\r\n"
                  "Connection: close\r\n\r\n",
                  status, statusText(status), content_type.c_str());
    return sendAll(head, std::strlen(head));
}

bool
ResponseWriter::writeChunk(const std::string& data)
{
    if (data.empty())
        return !broken_;
    char size_line[32];
    std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
    if (!sendAll(size_line, std::strlen(size_line)))
        return false;
    if (!sendAll(data.data(), data.size()))
        return false;
    return sendAll("\r\n", 2);
}

bool
ResponseWriter::endChunked()
{
    return sendAll("0\r\n\r\n", 5);
}

HttpServer::HttpServer(HttpHandler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(int port)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (listenFd_ < 0)
        return;
    stopping_.store(true);
    // shutdown() unblocks the accept() so the loop can observe the
    // flag and exit.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    std::list<Connection> conns;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        conns.swap(connections_);
    }
    for (Connection& conn : conns)
        conn.thread.join();
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                return;
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kSocketDeadline,
                     sizeof kSocketDeadline);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kSocketDeadline,
                     sizeof kSocketDeadline);
        std::lock_guard<std::mutex> lock(connMu_);
        // A finished thread has only its exit left: the join is quick.
        connections_.remove_if([](Connection& c) {
            if (c.finished)
                c.thread.join();
            return c.finished;
        });
        Connection& conn = connections_.emplace_back();
        conn.thread = std::thread([this, fd, &conn] {
            handleConnection(fd);
            std::lock_guard<std::mutex> done(connMu_);
            conn.finished = true;
        });
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Read until the header terminator, then Content-Length more.
    std::string data;
    std::size_t header_end = std::string::npos;
    char buffer[4096];
    while (header_end == std::string::npos) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0) {
            ::close(fd);
            return;
        }
        data.append(buffer, static_cast<std::size_t>(n));
        header_end = data.find("\r\n\r\n");
        if (data.size() > kMaxRequestBytes)
            break;  // Oversized header: drop the connection.
    }
    if (header_end == std::string::npos) {
        ::close(fd);
        return;
    }

    HttpRequest request;
    {
        const std::string head = data.substr(0, header_end);
        const auto line_end = head.find("\r\n");
        const std::string line = head.substr(0, line_end);
        const auto sp1 = line.find(' ');
        const auto sp2 = line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
            ::close(fd);
            return;
        }
        request.method = line.substr(0, sp1);
        request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);

        std::size_t content_length = 0;
        bool length_ok = true;
        std::size_t pos = line_end;
        while (pos != std::string::npos && pos < head.size()) {
            const std::size_t start = pos + 2;
            const std::size_t end = head.find("\r\n", start);
            const std::string header =
                head.substr(start, end == std::string::npos
                                       ? std::string::npos
                                       : end - start);
            if (header.size() > 15) {
                std::string name = header.substr(0, 15);
                for (char& c : name)
                    c = static_cast<char>(std::tolower(c));
                if (name == "content-length:") {
                    length_ok = parseContentLength(header.c_str() + 15,
                                                   &content_length);
                }
            }
            pos = end;
        }
        if (!length_ok || content_length > kMaxRequestBytes) {
            ResponseWriter(fd).writeFull(
                413, "application/json",
                "{\"error\":\"request body too large\"}");
            ::close(fd);
            return;
        }

        std::string body = data.substr(header_end + 4);
        while (body.size() < content_length) {
            const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
            if (n <= 0)
                break;
            body.append(buffer, static_cast<std::size_t>(n));
        }
        request.body = std::move(body);
    }

    ResponseWriter writer(fd);
    handler_(request, writer);
    ::close(fd);
}

}  // namespace splitwise::server

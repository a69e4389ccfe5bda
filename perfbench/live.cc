/**
 * @file
 * The live_http workload: splitwise_server --clock sim as a child
 * process, driven as a black box by a closed loop of kClients
 * connections, each request streaming kOutputTokens tokens. An op is
 * one completed stream. Each pass starts a fresh server, runs
 * kStreamsPerPass streams, then drains it through
 * /v1/admin/shutdown and requires a clean exit with leaked=0.
 *
 * The fixed pass size works round a server defect: HttpServer keeps
 * every finished connection thread until it stops, so a long-lived
 * server grows with the streams it served. The traced run measures
 * that growth as server.retained_kb_per_stream.
 *
 * The client closes each finished connection with an abortive close
 * (SO_LINGER 0) after the server's FIN, so no TIME_WAIT sockets pile
 * up across passes and runs.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/designs.h"
#include "core/ingress.h"
#include "core/json.h"
#include "core/run.h"
#include "model/llm_config.h"
#include "server/http_client.h"
#include "sim/clock.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace splitwise;

constexpr int kClients = 2;
constexpr int kOutputTokens = 256;
constexpr int kStreamsPerPass = 1000;
/** Server start/stop cycles timed for setup_s before measuring. */
constexpr int kSetupSamples = 4;
/** Untimed streams per set-up cycle. */
constexpr int kWarmupStreams = 200;
/** Longest wait for the server's listening line or its exit. */
constexpr int kServerTimeoutMs = 20'000;

/** TIME_WAIT sockets in this network namespace. */
double
timeWaitCount()
{
    std::ifstream in("/proc/net/sockstat");
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find(" tw ");
        if (line.rfind("TCP:", 0) == 0 && pos != std::string::npos)
            return std::stod(line.substr(pos + 4));
    }
    return -1.0;
}

/** User+system CPU of process @p pid, ms (clock-tick resolution). */
double
childCpuMs(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    // Fields after the command name start at field 3 (state); utime
    // and stime are fields 14 and 15.
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double utime = 0;
    double stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
        if (f == 14)
            utime = std::stod(field);
        if (f == 15)
            stime = std::stod(field);
    }
    const auto ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
    return (utime + stime) * 1000.0 / ticks;
}

/**
 * A memory line of process @p pid's status, MB: "VmHWM:" is the peak
 * resident set, "VmRSS:" the current one.
 */
double
childMemoryMb(pid_t pid, const std::string& field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0)
            return std::stod(line.substr(field.size())) / 1024.0;
    }
    return 0.0;
}

/**
 * Run this process, its threads and the server it spawns on one CPU,
 * the last this process may use. A stream is a ping-pong between the
 * serving loop, the connection thread and the client; spread over
 * several vCPUs each hand-off waits on an idle-vCPU wake-up, and the
 * run-to-run throughput swung by a third with the host's load. On one
 * CPU an op costs the CPU work of the whole path plus context
 * switches, which repeats within about 5%.
 */
void
pinToOneCpu()
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &cpus)) {
            CPU_ZERO(&cpus);
            CPU_SET(cpu, &cpus);
            sched_setaffinity(0, sizeof cpus, &cpus);
            return;
        }
    }
}

/** A splitwise_server child with its stdout on a pipe. */
class ServerProcess {
  public:
    ServerProcess() = default;
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    ~ServerProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            ::close(out_);
    }

    /**
     * Spawn the server and wait for its listening line.
     * @return false (with @p error set) when it did not come up.
     */
    bool
    start(const std::string& path, const std::string& report_path,
          std::string& error)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            error = "pipe failed";
            return false;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        std::vector<std::string> args = {path, "--clock", "sim", "--port",
                                         "0", "--report-out", report_path};
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            error = "cannot spawn " + path + ": " + std::strerror(rc);
            return false;
        }
        std::string line;
        while (readLine(line)) {
            if (std::sscanf(line.c_str(), "listening port=%d", &port_) == 1)
                return true;
        }
        error = "server printed no listening line";
        return false;
    }

    /**
     * Drain and stop the server; true when it exited 0 and reported
     * leaked=0. Its output lines are appended to @p lines.
     */
    bool
    shutdown(std::vector<std::string>& lines)
    {
        const auto response =
            server::httpRequest(port_, "POST", "/v1/admin/shutdown");
        std::string line;
        bool leaked_zero = false;
        while (readLine(line)) {
            lines.push_back(line);
            if (line.rfind("served ", 0) == 0 &&
                line.find(" leaked=0") != std::string::npos)
                leaked_zero = true;
        }
        int status = 0;
        const pid_t pid = pid_;
        pid_ = -1;
        if (::waitpid(pid, &status, 0) != pid)
            return false;
        return response.status / 100 == 2 && leaked_zero &&
               WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
    }

    int port() const { return port_; }
    pid_t pid() const { return pid_; }

  private:
    /** Read one stdout line; false on EOF or timeout. */
    bool
    readLine(std::string& line)
    {
        for (;;) {
            const auto eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                line = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                return true;
            }
            pollfd pfd{out_, POLLIN, 0};
            if (::poll(&pfd, 1, kServerTimeoutMs) <= 0)
                return false;
            char chunk[512];
            const ssize_t n = ::read(out_, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int out_ = -1;
    int port_ = 0;
    std::string buffer_;
};

/** One client stream's timings and verdict. */
struct StreamResult {
    bool ok = false;
    double connectMs = 0.0;
    /** connect() start to the first NDJSON token record. */
    double ttftMs = 0.0;
    double totalMs = 0.0;
};

/**
 * Decode a chunked body and check its NDJSON records: one record per
 * token, the last one finished with the full budget.
 */
bool
checkStreamBody(const std::string& raw)
{
    if (raw.rfind("HTTP/1.1 200", 0) != 0)
        return false;
    const auto header_end = raw.find("\r\n\r\n");
    if (header_end == std::string::npos)
        return false;
    std::string body;
    std::size_t pos = header_end + 4;
    for (;;) {
        const auto eol = raw.find("\r\n", pos);
        if (eol == std::string::npos)
            return false;
        const std::size_t size =
            std::strtoull(raw.c_str() + pos, nullptr, 16);
        if (size == 0)
            break;
        if (eol + 2 + size > raw.size())
            return false;
        body.append(raw, eol + 2, size);
        pos = eol + 2 + size + 2;
    }
    std::vector<std::string> records;
    std::istringstream lines(body);
    for (std::string line; std::getline(lines, line);) {
        if (!line.empty())
            records.push_back(line);
    }
    if (records.size() != static_cast<std::size_t>(kOutputTokens))
        return false;
    try {
        const core::JsonValue last = core::JsonValue::parse(records.back());
        return last.has("finished") && last.at("finished").asBool() &&
               last.at("tokens").asInt() == kOutputTokens;
    } catch (const std::exception&) {
        return false;  // a malformed record fails the stream
    }
}

StreamResult
streamOnce(int port, std::int64_t prompt_tokens)
{
    StreamResult result;
    const auto t0 = Clock::now();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return result;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return result;
    }
    result.connectMs = msSince(t0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const std::string body = "{\"prompt_tokens\":" +
                             std::to_string(prompt_tokens) +
                             ",\"output_tokens\":" +
                             std::to_string(kOutputTokens) + "}";
    const std::string request =
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    bool sent = true;
    for (std::size_t off = 0; off < request.size();) {
        const ssize_t n = ::send(fd, request.data() + off,
                                 request.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            sent = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }

    std::string raw;
    bool first = false;
    char buffer[16384];
    while (sent) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0)
            break;
        const std::size_t scan_from = raw.size() > 16 ? raw.size() - 16 : 0;
        raw.append(buffer, static_cast<std::size_t>(n));
        if (!first &&
            raw.find("\"tokens\":", scan_from) != std::string::npos) {
            result.ttftMs = msSince(t0);
            first = true;
        }
    }
    // The server closed first; reset instead of a FIN so neither side
    // keeps a TIME_WAIT socket.
    const linger abortive{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof abortive);
    ::close(fd);
    result.totalMs = msSince(t0);
    result.ok = sent && first && checkStreamBody(raw);
    return result;
}

/** Prompt lengths of the seed's coding-mix requests. */
std::vector<std::int64_t>
promptMix(std::uint64_t seed, std::size_t count)
{
    workload::TraceGenerator gen(workload::coding(), seed);
    std::vector<std::int64_t> prompts;
    for (const auto& r : gen.generateUniform(count, 1000))
        prompts.push_back(r.promptTokens);
    return prompts;
}

/** Everything one server pass measured. */
struct LivePass {
    std::vector<StreamResult> streams;
    double wallMs = 0.0;
    double serverCpuMs = 0.0;
    double serverPeakRssMb = 0.0;
    /** Server resident set after the last stream, before shutdown. */
    double serverRssMb = 0.0;
    double setupMs = 0.0;
    std::uint64_t failed = 0;
    bool serverClean = false;
    std::string reportJson;
    std::vector<std::string> serverLines;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/**
 * Start a server, time it until the port accepts, run @p streams.
 * The server's report file is removed before and after, so a server
 * that writes none fails the pass instead of reading an old one.
 */
bool
runServerPass(const Options& options,
              const std::vector<std::int64_t>& prompts, int streams,
              LivePass& pass, std::string& error)
{
    const std::string report_path = options.workDir + "/live_report_" +
                                    std::to_string(::getpid()) + ".json";
    std::remove(report_path.c_str());
    ServerProcess server;
    const auto t0 = Clock::now();
    if (!server.start(options.serverPath, report_path, error))
        return false;
    pass.setupMs = msSince(t0);

    pass.streams.resize(static_cast<std::size_t>(streams));
    std::atomic<int> next{0};
    const double cpu0 = childCpuMs(server.pid());
    const auto w0 = Clock::now();
    auto client = [&] {
        for (int i = next.fetch_add(1); i < streams; i = next.fetch_add(1)) {
            pass.streams[static_cast<std::size_t>(i)] = streamOnce(
                server.port(), prompts[static_cast<std::size_t>(i) %
                                       prompts.size()]);
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (auto& t : clients)
        t.join();
    pass.wallMs = msSince(w0);
    pass.serverCpuMs = childCpuMs(server.pid()) - cpu0;
    pass.serverPeakRssMb = childMemoryMb(server.pid(), "VmHWM:");
    pass.serverRssMb = childMemoryMb(server.pid(), "VmRSS:");
    for (const auto& s : pass.streams)
        pass.failed += s.ok ? 0 : 1;

    pass.serverClean = server.shutdown(pass.serverLines);
    pass.reportJson = readFile(report_path);
    std::remove(report_path.c_str());
    if (pass.reportJson.empty()) {
        pass.serverClean = false;
        pass.serverLines.push_back("server wrote no report");
    }
    return true;
}

/**
 * core.ingress.ttft_ms: the same request mix through an in-process
 * Ingress + runLive on a SimClock, timed from submit() to the first
 * streamed token.
 */
std::vector<double>
ingressTtftMs(const std::vector<std::int64_t>& prompts, int requests,
              bool& clean)
{
    core::RunOptions run;
    run.llm = model::llama2_70b();
    run.design = core::splitwiseHH(1, 1);
    core::Ingress ingress;
    sim::SimClock clock;
    std::thread serving([&] { core::runLive(run, ingress, clock); });

    std::vector<double> ttft(static_cast<std::size_t>(requests), 0.0);
    std::atomic<int> next{0};
    std::atomic<int> incomplete{0};
    auto client = [&] {
        for (int i = next.fetch_add(1); i < requests; i = next.fetch_add(1)) {
            std::mutex mu;
            std::condition_variable cv;
            bool done = false;
            bool finished = false;
            double first_ms = -1.0;
            core::IngressRequest request;
            request.promptTokens =
                prompts[static_cast<std::size_t>(i) % prompts.size()];
            request.outputTokens = kOutputTokens;
            const auto t0 = Clock::now();
            core::RequestHandle handle = ingress.submit(
                request, [&](const core::TokenUpdate& update) {
                    std::lock_guard<std::mutex> lock(mu);
                    if (first_ms < 0 && update.tokensGenerated >= 1)
                        first_ms = msSince(t0);
                    if (update.finished || update.rejected) {
                        finished = update.finished &&
                                   update.tokensGenerated == kOutputTokens;
                        done = true;
                        cv.notify_one();
                    }
                });
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done; });
            (void)handle.detach();
            ttft[static_cast<std::size_t>(i)] = first_ms;
            if (!finished)
                incomplete.fetch_add(1);
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (auto& t : clients)
        t.join();
    ingress.shutdown();
    serving.join();
    clean = incomplete.load() == 0 && ingress.unresolved() == 0;
    return ttft;
}

}  // namespace

Outcome
runLiveHttp(const Options& options)
{
    Outcome out;
    const auto run_start = Clock::now();
    const double time_wait = timeWaitCount();
    pinToOneCpu();
    const std::vector<std::int64_t> prompts =
        promptMix(options.seed, kStreamsPerPass);

    // Set-up samples, each server also warming the client and server
    // paths with a few untimed streams. Every measured pass adds one.
    SetupSampler setup([] {});
    std::vector<double> warm_rss_mb;
    std::string error;
    for (int i = 0; i < kSetupSamples; ++i) {
        LivePass warm;
        if (!runServerPass(options, prompts, kWarmupStreams, warm, error)) {
            out.fail(1, error);
            return out;
        }
        setup.add(warm.setupMs);
        warm_rss_mb.push_back(warm.serverRssMb);
        if (!warm.serverClean || warm.failed > 0)
            out.fail(0, "warm-up server pass failed its checks");
    }

    // Tracing here only keeps the per-stream connect timings.
    OpLedger untraced;
    OpLedger traced;
    PassPercentiles client_ttft;
    std::vector<double> connect_ms;
    double server_rss_mb = 0.0;
    std::vector<double> pass_rss_mb;
    std::vector<double> sim_ttft_p99;
    std::vector<double> sim_tbt_p99;
    std::string first_report;
    const std::string pass_rates =
        runPasses(options, run_start, 2, nullptr, [&](int i, bool is_traced) {
            LivePass pass;
            if (!runServerPass(options, prompts, kStreamsPerPass, pass,
                               error)) {
                out.fail(kStreamsPerPass, error);
                return -1.0;
            }
            setup.add(pass.setupMs);
            pass_rss_mb.push_back(pass.serverRssMb);
            out.attempted += pass.streams.size();
            if (pass.failed > 0) {
                out.fail(pass.failed, std::to_string(pass.failed) +
                                          " streams ended without their "
                                          "full terminal record");
            }
            if (!pass.serverClean) {
                std::string tail =
                    pass.serverLines.empty() ? "" : pass.serverLines.back();
                out.fail(0, "server did not drain cleanly: " + tail);
            }
            if (i == 0)
                first_report = pass.reportJson;
            if (!pass.reportJson.empty()) {
                const auto req =
                    core::JsonValue::parse(pass.reportJson).at("requests");
                sim_ttft_p99.push_back(
                    req.at("ttft_ms").at("p99").asNumber());
                sim_tbt_p99.push_back(req.at("tbt_ms").at("p99").asNumber());
                if (req.at("completed").asInt() != kStreamsPerPass)
                    out.fail(0, "server report: completed != streams issued");
            }

            std::vector<double> op_ms;
            std::vector<double> ttft_ms;
            for (const auto& s : pass.streams) {
                op_ms.push_back(s.totalMs);
                ttft_ms.push_back(s.ttftMs);
                if (is_traced)
                    connect_ms.push_back(s.connectMs);
            }
            (is_traced ? traced : untraced)
                .addPass(op_ms, pass.wallMs, pass.serverCpuMs);
            if (!is_traced) {
                client_ttft.addPass(ttft_ms);
                server_rss_mb = std::max(server_rss_mb, pass.serverPeakRssMb);
            }
            return static_cast<double>(pass.streams.size()) * 1000.0 /
                   pass.wallMs;
        });

    // The servers' own simulated view: the first pass's report for
    // the digest, the median across passes for the metrics.
    std::string digest = "digest live_http seed=" +
                         std::to_string(options.seed) +
                         " time_wait_at_start=" +
                         std::to_string(static_cast<long>(time_wait));
    LayerSheet layers;
    if (!first_report.empty()) {
        const core::JsonValue report = core::JsonValue::parse(first_report);
        const auto& pools = report.at("pools");
        const auto& transfers = report.at("transfers");
        const auto& sched = report.at("scheduler");
        const std::int64_t iters =
            pools.at("prompt").at("iterations").asInt() +
            pools.at("token").at("iterations").asInt();
        const std::int64_t kv = transfers.at("count").asInt();
        const std::int64_t completed =
            report.at("requests").at("completed").asInt();
        digest += " completed=" + std::to_string(completed) +
                  " iterations=" + std::to_string(iters) +
                  " kv_transfers=" + std::to_string(kv);
        layers.iterationsPerOp = static_cast<double>(iters) / kStreamsPerPass;
        layers.kvTransfersPerOp = static_cast<double>(kv) / kStreamsPerPass;
        layers.memoryStalls = transfers.at("memory_stalls").asNumber();
        layers.preemptions = sched.at("preemptions").asNumber();
        layers.rejected = sched.at("rejected").asNumber();
    }
    out.digest.push_back(digest);
    out.digest.push_back(pass_rates);

    if (options.trace) {
        bool clean = false;
        const std::vector<double> ingress =
            ingressTtftMs(prompts, kStreamsPerPass, clean);
        if (!clean)
            out.fail(0, "in-process ingress run left requests unresolved");
        layers.ingressTtftMs = quantile(ingress, 0.5);
        layers.httpOverheadMs = client_ttft.p50() - layers.ingressTtftMs;
        layers.connectMs = quantile(connect_ms, 0.5);
        layers.timeWaitAtStart = time_wait;
        // HttpServer keeps every finished connection thread until it
        // stops, so a server's memory grows with the streams it served:
        // resident set after 1,000 streams against after 200.
        layers.retainedKbPerStream =
            (median(pass_rss_mb) - median(warm_rss_mb)) * 1024.0 /
            (kStreamsPerPass - kWarmupStreams);
        layers.traceOverheadPct =
            overheadPct(untraced.opsPerS(), traced.opsPerS());
        emitLayers(out, layers);
        return out;
    }

    EndToEnd e;
    e.opsPerS = untraced.opsPerS();
    e.opP50Ms = untraced.opP50Ms();
    e.opP90Ms = untraced.opP90Ms();
    e.cpuMsPerOp = untraced.cpuMsPerOp();
    e.peakRssMb = server_rss_mb;
    e.setupS = setup.seconds();
    e.simTtftP99Ms = median(sim_ttft_p99);
    e.simTbtP99Ms = median(sim_tbt_p99);
    e.clientTtftP50Ms = client_ttft.p50();
    e.clientTtftP90Ms = client_ttft.p90();
    emitEndToEnd(out, e);
    return out;
}

}  // namespace perfbench

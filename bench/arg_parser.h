#ifndef SPLITWISE_BENCH_ARG_PARSER_H_
#define SPLITWISE_BENCH_ARG_PARSER_H_

/**
 * @file
 * A small typed command-line parser for the bench binaries.
 *
 * Replaces the per-bench strcmp/strncmp loops: flags are registered
 * with a type, a target, and a help line; `--help` is generated; and
 * unknown flags are hard errors (exit code 2) instead of being
 * silently ignored - a typoed `--job=8` used to run the bench at the
 * hardware default without a word.
 *
 * Supported spellings: `--flag=value` and `--flag value`. Boolean
 * flags take no value. A bench may register one optional positional
 * operand (bench_chaos's bare seed) and a passthrough prefix for
 * flags owned by an embedded library (bench_micro forwards
 * `--benchmark_*` to google-benchmark).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace splitwise::bench {

class ArgParser {
  public:
    /**
     * @param program Binary name shown in usage/help.
     * @param summary One-line description shown by --help.
     */
    ArgParser(std::string program, std::string summary)
        : program_(std::move(program)), summary_(std::move(summary))
    {
    }

    void
    addString(const std::string& name, std::string* target,
              const std::string& help, bool required = false)
    {
        addFlagSpec(name, Kind::kString, target, help, required,
                    target->empty() ? "" : *target);
    }

    void
    addInt(const std::string& name, int* target, const std::string& help)
    {
        addFlagSpec(name, Kind::kInt, target, help, false,
                    std::to_string(*target));
    }

    void
    addUint64(const std::string& name, std::uint64_t* target,
              const std::string& help)
    {
        addFlagSpec(name, Kind::kUint64, target, help, false,
                    std::to_string(*target));
    }

    void
    addDouble(const std::string& name, double* target,
              const std::string& help)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", *target);
        addFlagSpec(name, Kind::kDouble, target, help, false, buf);
    }

    /** A value-less boolean switch; presence sets the target true. */
    void
    addFlag(const std::string& name, bool* target, const std::string& help)
    {
        addFlagSpec(name, Kind::kBool, target, help, false, "");
    }

    /** Register the single optional positional operand. */
    void
    addPositional(const std::string& name, std::string* target,
                  const std::string& help)
    {
        positionalName_ = name;
        positionalTarget_ = target;
        positionalHelp_ = help;
    }

    /**
     * Arguments starting with @p prefix are collected verbatim into
     * passthrough() instead of being parsed (for embedded libraries
     * with their own flag namespace).
     */
    void passthroughPrefix(std::string prefix)
    {
        passthroughPrefix_ = std::move(prefix);
    }

    const std::vector<std::string>& passthrough() const
    {
        return passthrough_;
    }

    /**
     * Register a post-parse validation hook; it runs after all flags
     * are applied and should call ArgParser::fail() or sim::fatal()
     * on invalid combinations. Either way the process exits 2.
     */
    void addValidator(std::function<void()> validator)
    {
        validators_.push_back(std::move(validator));
    }

    /**
     * Parse the command line. On `--help`/`-h` prints the generated
     * help and exits 0; on any error (unknown flag, missing/invalid
     * value, missing required flag, a validator that throws) prints
     * a diagnostic and exits 2.
     */
    void
    parse(int argc, char** argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                printHelp();
                std::exit(0);
            }
            if (!passthroughPrefix_.empty() &&
                arg.rfind(passthroughPrefix_, 0) == 0) {
                passthrough_.push_back(arg);
                continue;
            }
            if (arg.rfind("--", 0) == 0) {
                parseFlag(arg, i, argc, argv);
                continue;
            }
            if (positionalTarget_ != nullptr && !positionalSeen_) {
                *positionalTarget_ = arg;
                positionalSeen_ = true;
                continue;
            }
            fail("unexpected argument '" + arg + "'");
        }
        for (const auto& spec : flags_) {
            if (spec.required && !spec.seen)
                fail("missing required flag " + spec.name);
        }
        try {
            for (const auto& validator : validators_)
                validator();
        } catch (const std::exception& e) {
            fail(e.what());
        }
    }

    /** Print a diagnostic and exit 2 (non-zero per the bench CLI contract). */
    [[noreturn]] void
    fail(const std::string& message) const
    {
        std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n",
                     program_.c_str(), message.c_str(), program_.c_str());
        std::exit(2);
    }

  private:
    enum class Kind { kString, kInt, kUint64, kDouble, kBool };

    struct Spec {
        std::string name;
        Kind kind;
        void* target;
        std::string help;
        bool required;
        std::string defaultText;
        bool seen = false;
    };

    void
    addFlagSpec(const std::string& name, Kind kind, void* target,
                const std::string& help, bool required,
                std::string default_text)
    {
        // Registering the same flag twice is a bench programming
        // error: the first registration would silently win at parse
        // time while the second target never gets written.
        if (findFlag(name) != nullptr)
            fail("duplicate flag registration " + name);
        flags_.push_back(
            {name, kind, target, help, required, std::move(default_text)});
    }

    Spec*
    findFlag(const std::string& name)
    {
        for (auto& spec : flags_) {
            if (spec.name == name)
                return &spec;
        }
        return nullptr;
    }

    void
    parseFlag(const std::string& arg, int& i, int argc, char** argv)
    {
        std::string name = arg;
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }
        Spec* spec = findFlag(name);
        if (spec == nullptr)
            fail("unknown flag " + name);
        if (spec->kind == Kind::kBool) {
            if (has_value)
                fail(name + " takes no value");
            *static_cast<bool*>(spec->target) = true;
            spec->seen = true;
            return;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                fail(name + " requires a value");
            value = argv[++i];
        }
        applyValue(*spec, value);
        spec->seen = true;
    }

    void
    applyValue(Spec& spec, const std::string& value)
    {
        try {
            std::size_t used = 0;
            switch (spec.kind) {
              case Kind::kString:
                *static_cast<std::string*>(spec.target) = value;
                return;
              case Kind::kInt:
                *static_cast<int*>(spec.target) = std::stoi(value, &used);
                break;
              case Kind::kUint64:
                *static_cast<std::uint64_t*>(spec.target) =
                    std::stoull(value, &used);
                break;
              case Kind::kDouble:
                *static_cast<double*>(spec.target) = std::stod(value, &used);
                break;
              case Kind::kBool:
                return;  // handled in parseFlag
            }
            if (used != value.size())
                fail(spec.name + ": invalid value '" + value + "'");
        } catch (const std::exception&) {
            fail(spec.name + ": invalid value '" + value + "'");
        }
    }

    void
    printHelp() const
    {
        std::printf("usage: %s [flags]%s\n\n%s\n\nflags:\n", program_.c_str(),
                    positionalTarget_ != nullptr
                        ? (" [" + positionalName_ + "]").c_str()
                        : "",
                    summary_.c_str());
        for (const auto& spec : flags_) {
            const std::string left =
                spec.kind == Kind::kBool ? spec.name : spec.name + "=VALUE";
            std::string right = spec.help;
            if (spec.required)
                right += " (required)";
            else if (!spec.defaultText.empty())
                right += " (default: " + spec.defaultText + ")";
            std::printf("  %-26s %s\n", left.c_str(), right.c_str());
        }
        std::printf("  %-26s %s\n", "--help", "show this help");
        if (positionalTarget_ != nullptr) {
            std::printf("\npositional:\n  %-26s %s\n",
                        positionalName_.c_str(), positionalHelp_.c_str());
        }
        if (!passthroughPrefix_.empty()) {
            std::printf("\nflags starting with %s are forwarded verbatim\n",
                        passthroughPrefix_.c_str());
        }
    }

    std::string program_;
    std::string summary_;
    std::vector<Spec> flags_;
    std::string positionalName_;
    std::string* positionalTarget_ = nullptr;
    std::string positionalHelp_;
    bool positionalSeen_ = false;
    std::string passthroughPrefix_;
    std::vector<std::string> passthrough_;
    std::vector<std::function<void()>> validators_;
};

}  // namespace splitwise::bench

#endif  // SPLITWISE_BENCH_ARG_PARSER_H_

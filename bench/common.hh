/**
 * @file
 * Shared benchmark harness utilities: aligned table printing, ASCII bar
 * "figures" mirroring the paper's plots, and VM factory helpers used by
 * every per-table/per-figure benchmark binary.
 */
#ifndef VEIL_BENCH_COMMON_HH_
#define VEIL_BENCH_COMMON_HH_

#include <string>
#include <vector>

#include "sdk/remote.hh"
#include "sdk/vm.hh"

namespace veil::bench {

/** Column-aligned console table. print() also records it for jsonFlush. */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> columns);

    void addRow(std::vector<std::string> cells);
    void print() const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Print a horizontal ASCII bar (for figure reproduction). Also recorded
 * for jsonFlush.
 */
void printBar(const std::string &label, double value, double max_value,
              const std::string &suffix, int width = 44);

/**
 * Machine-readable bench output. jsonInit() scans argv for
 * "--json <path>" / "--json=<path>" (consuming the tokens) and falls
 * back to the VEIL_BENCH_JSON environment variable; when either is
 * set, every Table printed, every printBar, and every jsonMetric()
 * call is collected and dumped as one JSON document at exit (and on
 * jsonFlush). Without a path, both are no-ops.
 *
 * It also scans for "--trace <path>" / "--trace=<path>" (fallback:
 * the VEIL_TRACE_JSON environment variable), which selects the output
 * file for traceFinish()'s Chrome trace export.
 */
void jsonInit(int *argc, char **argv, const std::string &bench_name);

/**
 * Record a standalone key/value metric in the JSON document. A name is
 * recorded at most once per document; a repeat panics.
 */
void jsonMetric(const std::string &name, double value,
                const std::string &unit = "");

/**
 * Record an acceptance gate: the bench passes it iff
 * `value op bound`, with @p op one of ">=", ">", "==", "<", "<=" (any
 * other op panics). Every bench bound goes through here, so
 * gateFinish() can list them all.
 */
void gate(const std::string &name, double value, const char *op,
          double bound);

/**
 * Close the bench: print the "Gates" table (name, value, op, bound,
 * verdict), add the "gates" array and the gate_failures metric to the
 * JSON document, and return main's exit code — 1 iff any gate failed.
 * Prints nothing when no gate was recorded.
 */
int gateFinish();

/**
 * Consume a boolean flag (e.g. "--huge-db") from argv: returns true and
 * shifts the remaining arguments left if present. Call after jsonInit.
 */
bool flagConsume(int *argc, char **argv, const char *flag);

/** Write the JSON document now (idempotent; also runs atexit). A
 *  failed gate still gets its document written, with its verdict. */
void jsonFlush();

/** Section header. */
void heading(const std::string &text);

/** Free-form note line. */
void note(const std::string &text);

std::string fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

/** Percentage overhead of @p value over @p base. */
double overheadPct(double value, double base);

/**
 * Print the machine's hardware-event counters (entries/exits,
 * rmpadjust/pvalidate) and the process-wide crypto counters — all
 * through the VeilTrace metrics registry, so text and --json output
 * stay in sync. @p json_prefix is prepended to each JSON metric name,
 * so a bench that prints the counters of two VMs keeps names unique.
 */
void printVmStats(const snp::Machine &m, const std::string &json_prefix = "");

/**
 * Kernel-aware variant: additionally prints per-VeilOp call counts
 * (sync + batched) and the §11 op-ring counters — submissions,
 * doorbells, flush triggers, and the domain switches the ring saved —
 * again mirrored to --json so text and JSON always agree.
 */
void printVmStats(const snp::Machine &m, const kern::Kernel &k,
                  const std::string &json_prefix = "");

/**
 * Domain switches the op ring saved: each deferred op avoided one IDCB
 * round trip (two switches); each doorbell spent one to drain a batch.
 */
uint64_t opRingSwitchesSaved(const kern::KernelStats &s);

/**
 * Finish-line trace hook for bench binaries: if jsonInit() saw a
 * --trace path (or VEIL_TRACE_JSON), export the machine's VeilTrace
 * rings as a Chrome trace-event JSON file and print the simulated
 * cycles-by-category attribution table. Gates that the categories sum
 * to the total and that events were recorded. Without a path, prints
 * nothing, writes nothing and gates nothing.
 */
void traceFinish(const snp::Machine &m);

/** Default Veil VM config for benches. */
sdk::VmConfig veilConfig(size_t mem_mb = 64);

/** Native CVM config (no Veil). */
sdk::VmConfig nativeConfig(size_t mem_mb = 64);

} // namespace veil::bench

#endif // VEIL_BENCH_COMMON_HH_

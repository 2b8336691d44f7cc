/**
 * @file
 * Table II reproduction: mapping overhead (additional CNOTs; one
 * SWAP = 3 CNOTs) of the compressed-UCCSD benchmarks under three
 * compilation flows:
 *   - MtR on XTree17Q: hierarchical initial layout + Merge-to-Root
 *   - SAB on XTree17Q: chain synthesis + SABRE routing
 *   - SAB on Grid17Q:  chain synthesis + SABRE on the dense grid
 * plus the "Original # of CNOTs" of the compressed chain circuits.
 * Quick mode covers molecules up to H2O; QCC_FULL=1 runs all nine.
 *
 * A second table times the Algorithm-1 importance scores that every
 * compression ratio starts from, on all nine molecules in both modes
 * (the kernel is cheap next to the compiles): the one-string
 * reference over every rotation, and the batched stringScores on the
 * scalar and AVX2 paths, with a check that all three agree bit for
 * bit. Under QCC_JSON these land in BENCH_table2.json as one
 * `importance_<molecule>` row each.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "ansatz/compression.hh"
#include "ansatz/importance.hh"
#include "ansatz/uccsd.hh"
#include "api/experiment.hh"
#include "bench_util.hh"
#include "chem/molecules.hh"
#include "ferm/hamiltonian.hh"
#include "sim/simd.hh"

using namespace qcc;
using namespace qccbench;

namespace {

const std::vector<double> ratios = {0.1, 0.3, 0.5, 0.7, 0.9};

struct Row
{
    std::string name;
    std::vector<size_t> original, mtr, sabTree, sabGrid;
};

/** Median wall time of `reps` calls of fn, in ms. */
template <typename Fn>
double
medianMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

void
importanceTable(JsonReport &json)
{
    const int reps = 3;
    const bool simdWas = kern::simdActive();
    rule();
    std::printf("Algorithm 1 importance scores (ms, median of %d)\n",
                reps);
    std::printf("%-6s %6s %6s %11s %9s %9s %8s\n", "", "R", "T",
                "reference", "scalar", "avx2", "bitwise");
    for (const auto &entry : benchmarkMolecules()) {
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
        const PauliSum &h = prob.hamiltonian;

        std::vector<double> ref, scalar, avx2;
        const double refMs = medianMs(reps, [&] {
            ref.clear();
            for (const auto &r : full.rotations)
                ref.push_back(stringImportance(r.string, h));
        });
        kern::setSimdEnabled(false);
        const double scalarMs =
            medianMs(reps, [&] { scalar = stringScores(full, h); });
        bool same = sameBits(ref, scalar);
        std::vector<std::pair<std::string, double>> metrics = {
            {"R", double(full.rotations.size())},
            {"T", double(h.terms().size())},
            {"reference_ms", refMs},
            {"scalar_ms", scalarMs}};
        double avx2Ms = 0.0;
        if (kern::simdSupported()) {
            kern::setSimdEnabled(true);
            avx2Ms =
                medianMs(reps, [&] { avx2 = stringScores(full, h); });
            same = same && sameBits(ref, avx2);
            metrics.emplace_back("avx2_ms", avx2Ms);
        }
        metrics.emplace_back("bit_identical", same ? 1.0 : 0.0);
        std::printf("%-6s %6zu %6zu %11.2f %9.2f ", entry.name.c_str(),
                    full.rotations.size(), h.terms().size(), refMs,
                    scalarMs);
        if (kern::simdSupported())
            std::printf("%9.2f", avx2Ms);
        else
            std::printf("%9s", "-");
        std::printf(" %8s\n", same ? "yes" : "NO");
        json.row("importance_" + entry.name, std::move(metrics));
    }
    kern::setSimdEnabled(simdWas);
}

} // namespace

int
main()
{
    setVerbose(false);
    banner("Table II: mapping overhead of MtR vs SABRE "
           "(additional CNOTs; SWAP = 3 CNOTs)");
    JsonReport json("table2");

    const size_t maxMolecules = fullMode() ? 9 : 6;
    Device tree = makeDevice("xtree17");
    Device grid = makeDevice("grid17");

    // All three flows run through registry presets on the
    // pass-manager pipeline; the MtR flow's verify pass enforces the
    // coupling constraint (a violation aborts with the offending
    // pass and gate index).
    const auto &presets = pipelinePresetRegistry();
    CompilerPipeline chainPipe(presets.get("chain")());
    CompilerPipeline mtrPipe(*tree.tree, presets.get("mtr")());
    CompilerPipeline sabTreePipe(*tree.tree, presets.get("sabre")());
    CompilerPipeline sabGridPipe(*grid.graph,
                                 presets.get("sabre")());

    std::vector<Row> rows;
    double sumMtr = 0, sumSabTree = 0, sumOrig = 0, sumSabGrid = 0;

    for (const auto &entry : benchmarkMolecules()) {
        if (rows.size() >= maxMolecules)
            break;
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);

        Row row;
        row.name = entry.name;
        for (double ratio : ratios) {
            CompressedAnsatz comp =
                compressAnsatz(full, prob.hamiltonian, ratio);
            std::vector<double> zeros(comp.ansatz.nParams, 0.0);

            CompileResult chain =
                chainPipe.compile(comp.ansatz, zeros);
            row.original.push_back(chain.circuit.cnotCount());

            CompileResult mtr = mtrPipe.compile(comp.ansatz, zeros);
            row.mtr.push_back(mtr.overheadCnots());

            CompileResult st =
                sabTreePipe.compile(comp.ansatz, zeros);
            row.sabTree.push_back(st.overheadCnots());

            CompileResult sg =
                sabGridPipe.compile(comp.ansatz, zeros);
            row.sabGrid.push_back(sg.overheadCnots());

            sumOrig += double(chain.circuit.cnotCount());
            sumMtr += double(mtr.overheadCnots());
            sumSabTree += double(st.overheadCnots());
            sumSabGrid += double(sg.overheadCnots());
        }
        rows.push_back(row);
        std::printf("  ... %s done\n", entry.name.c_str());
    }

    auto printBlock = [&](const char *title,
                          std::vector<size_t> Row::*field) {
        rule();
        std::printf("%s\n", title);
        std::printf("%-6s", "Ratio");
        for (double r : ratios)
            std::printf("%10.0f%%", 100 * r);
        std::printf("\n");
        for (const auto &row : rows) {
            std::printf("%-6s", row.name.c_str());
            for (size_t v : row.*field)
                std::printf("%11zu", v);
            std::printf("\n");
        }
    };

    printBlock("Original # of CNOTs (compressed chain circuits)",
               &Row::original);
    printBlock("MtR on XTree17Q (additional CNOTs)", &Row::mtr);
    printBlock("SAB on XTree17Q (additional CNOTs)", &Row::sabTree);
    printBlock("SAB on Grid17Q (additional CNOTs)", &Row::sabGrid);

    rule('=');
    std::printf("aggregate: MtR overhead / original CNOTs      = "
                "%5.2f%%   (paper: ~1.4%%)\n",
                100.0 * sumMtr / sumOrig);
    std::printf("aggregate: SAB/XTree overhead / original      = "
                "%5.1f%%   (paper: ~177%%)\n",
                100.0 * sumSabTree / sumOrig);
    std::printf("aggregate: MtR overhead / SAB-XTree overhead  = "
                "%5.2f%%   (paper: ~1%%, i.e. 99%%+ reduction)\n",
                100.0 * sumMtr / sumSabTree);
    std::printf("aggregate: MtR overhead / SAB-Grid overhead   = "
                "%5.2f%%   (paper: ~2.3%%)\n",
                100.0 * sumMtr / sumSabGrid);
    std::printf("CI rows: quick mode stops after H2O; BH3/NH3/CH4 "
                "need QCC_FULL=1. The molecule x compression\n"
                "sweep also ships as examples/specs/table2_full.json "
                "for qcc_sweep.\n");

    importanceTable(json);
    return 0;
}

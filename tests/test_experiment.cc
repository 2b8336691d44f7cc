/**
 * @file
 * Tests for the qcc::Experiment facade layer: ExperimentSpec JSON
 * round-tripping, registry diagnostics (unknown keys must list the
 * registered names), the architecture parser, builder fluency, and
 * the contract that a facade run reproduces a hand-wired VqeDriver
 * (strategy injection) bit-for-bit at a fixed seed — plus the NoisySampled
 * composition smoke check.
 */

#include <gtest/gtest.h>

#include "ansatz/uccsd.hh"
#include "api/experiment.hh"
#include "common/logging.hh"
#include "ferm/hamiltonian.hh"
#include "vqe/driver.hh"
#include "vqe/estimation.hh"

using namespace qcc;

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setVerbose(false); }
} silencer;

ExperimentSpec
customSpec()
{
    ExperimentSpec s;
    s.molecule = "LiH";
    s.bond = 1.45;
    s.basisNg = 3;
    s.compression = 0.5;
    s.grouping = "sorted-insertion";
    s.mode = "noisy_sampled";
    s.optimizer = "spsa";
    s.pipeline = "mtr";
    s.architecture = "xtree17";
    s.cnotError = 2.5e-4;
    s.singleQubitError = 1e-5;
    s.shots = 4096;
    s.seed = 77;
    s.maxIter = 123;
    s.spsaIter = 321;
    s.reference = false;
    return s;
}

} // namespace

TEST(ExperimentSpec, JsonRoundTripIsIdentity)
{
    for (const ExperimentSpec &s :
         {ExperimentSpec{}, customSpec()}) {
        const std::string doc = s.json();
        ExperimentSpec back = ExperimentSpec::fromJson(doc);
        EXPECT_EQ(back.json(), doc);
        EXPECT_EQ(back.molecule, s.molecule);
        EXPECT_EQ(back.bond, s.bond);
        EXPECT_EQ(back.basisNg, s.basisNg);
        EXPECT_EQ(back.compression, s.compression);
        EXPECT_EQ(back.grouping, s.grouping);
        EXPECT_EQ(back.mode, s.mode);
        EXPECT_EQ(back.optimizer, s.optimizer);
        EXPECT_EQ(back.pipeline, s.pipeline);
        EXPECT_EQ(back.architecture, s.architecture);
        EXPECT_EQ(back.cnotError, s.cnotError);
        EXPECT_EQ(back.singleQubitError, s.singleQubitError);
        EXPECT_EQ(back.shots, s.shots);
        EXPECT_EQ(back.seed, s.seed);
        EXPECT_EQ(back.maxIter, s.maxIter);
        EXPECT_EQ(back.spsaIter, s.spsaIter);
        EXPECT_EQ(back.reference, s.reference);
    }
}

TEST(ExperimentSpec, MalformedJsonNamesTheField)
{
    EXPECT_THROW(ExperimentSpec::fromJson("not json"), SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"bond\": \"x\"}"),
                 SpecError);
    // strtoull would wrap a negative silently; the parser must not.
    EXPECT_THROW(ExperimentSpec::fromJson("{\"seed\": -1}"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"shots\": -5}"),
                 SpecError);
    // Out-of-int-range numbers must throw, not cast (UB).
    EXPECT_THROW(ExperimentSpec::fromJson("{\"max_iter\": 1e300}"),
                 SpecError);
    try {
        ExperimentSpec::fromJson("{\"no_such_field\": 1}");
        FAIL() << "unknown field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "no_such_field");
    }
    // A typo'd evolve field must be named, not silently dropped.
    try {
        ExperimentSpec::fromJson("{\"evolve_step\": 4}");
        FAIL() << "typo'd field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "evolve_step");
    }
    EXPECT_THROW(ExperimentSpec::fromJson("{\"evolve_steps\": 1e300}"),
                 SpecError);
    EXPECT_THROW(ExperimentSpec::fromJson("{\"kind\": 3}"),
                 SpecError);
}

TEST(ExperimentSpec, DuplicateTopLevelFieldsRejected)
{
    // The ordered-DOM parser preserves duplicates; last-wins would
    // make two meanings for one document, so the spec layer rejects.
    try {
        ExperimentSpec::fromJson(
            "{\"molecule\": \"H2\", \"molecule\": \"LiH\"}");
        FAIL() << "duplicate field accepted";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.field(), "molecule");
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos);
    }
    EXPECT_THROW(ExperimentSpec::fromJson(
                     "{\"kind\": \"vqe\", \"bond\": 1.0, "
                     "\"kind\": \"estimate\"}"),
                 SpecError);
    // Non-duplicated documents still parse.
    EXPECT_NO_THROW(ExperimentSpec::fromJson(
        "{\"kind\": \"estimate\", \"bond\": 1.0}"));
}

TEST(ExperimentSpec, EvolveFieldsRoundTrip)
{
    ExperimentSpec s;
    s.kind = "evolve";
    s.evolveTime = 0.75;
    s.evolveSteps = 6;
    s.evolveOrder = 2;
    const std::string doc = s.json();
    const ExperimentSpec back = ExperimentSpec::fromJson(doc);
    EXPECT_EQ(back.json(), doc);
    EXPECT_EQ(back.kind, "evolve");
    EXPECT_EQ(back.evolveTime, 0.75);
    EXPECT_EQ(back.evolveSteps, 6);
    EXPECT_EQ(back.evolveOrder, 2);
}

TEST(Experiment, UnknownModeListsRegisteredModes)
{
    ExperimentSpec s;
    s.mode = "bogus";
    try {
        Experiment bad(s);
        FAIL() << "unknown mode accepted";
    } catch (const RegistryError &e) {
        EXPECT_EQ(e.key(), "bogus");
        const std::string msg = e.what();
        EXPECT_NE(msg.find("ideal"), std::string::npos);
        EXPECT_NE(msg.find("noisy_sampled"), std::string::npos);
        EXPECT_NE(msg.find("sampled"), std::string::npos);
    }
}

TEST(Experiment, UnknownOptimizerListsRegisteredNames)
{
    ExperimentSpec s;
    s.optimizer = "adam";
    try {
        Experiment bad(s);
        FAIL() << "unknown optimizer accepted";
    } catch (const RegistryError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("lbfgs"), std::string::npos);
        EXPECT_NE(msg.find("spsa"), std::string::npos);
        EXPECT_NE(msg.find("nelder-mead"), std::string::npos);
    }
}

TEST(Experiment, UnknownGroupingAndPresetDiagnosed)
{
    ExperimentSpec s;
    s.grouping = "rainbow";
    EXPECT_THROW(Experiment bad(s), RegistryError);

    ExperimentSpec p;
    p.pipeline = "warp";
    try {
        Experiment bad(p);
        FAIL() << "unknown preset accepted";
    } catch (const RegistryError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("chain"), std::string::npos);
        EXPECT_NE(msg.find("mtr"), std::string::npos);
        EXPECT_NE(msg.find("sabre"), std::string::npos);
    }
}

TEST(Experiment, UnknownMoleculeListsCatalog)
{
    ExperimentSpec s;
    s.molecule = "C60";
    try {
        Experiment bad(s);
        FAIL() << "unknown molecule accepted";
    } catch (const SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("H2"), std::string::npos);
        EXPECT_NE(msg.find("CH4"), std::string::npos);
    }
}

TEST(Experiment, RoutedPresetRequiresDevice)
{
    ExperimentSpec s;
    s.pipeline = "mtr"; // routes, but no architecture named
    EXPECT_THROW(Experiment bad(s), SpecError);

    ExperimentSpec g;
    g.pipeline = "mtr";
    g.architecture = "grid17"; // MtR needs a tree
    EXPECT_THROW(Experiment bad(g), SpecError);
}

TEST(Experiment, DeviceParserHandlesTheArchitectureFamilies)
{
    Device t = makeDevice("xtree17");
    ASSERT_TRUE(t.tree.has_value());
    EXPECT_EQ(t.tree->graph.numQubits(), 17u);
    EXPECT_EQ(t.graph->numEdges(), 16u);

    Device g = makeDevice("grid3x6");
    EXPECT_FALSE(g.tree.has_value());
    EXPECT_EQ(g.graph->numQubits(), 18u);

    EXPECT_EQ(makeDevice("grid17").graph->numQubits(), 17u);
    EXPECT_THROW(makeDevice("torus4"), SpecError);
    EXPECT_THROW(makeDevice("gridAxB"), SpecError);
    // Out-of-range sizes must reject, not wrap to a tiny device.
    EXPECT_THROW(makeDevice("xtree4294967297"), SpecError);
    EXPECT_THROW(makeDevice("grid4294967297x2"), SpecError);
    EXPECT_THROW(makeDevice("grid4096x4096"), SpecError);
}

TEST(Experiment, RegistriesExposeTheBuiltInComponents)
{
    const auto backends = backendRegistry().names();
    EXPECT_NE(std::find(backends.begin(), backends.end(),
                        "statevector"),
              backends.end());
    EXPECT_NE(std::find(backends.begin(), backends.end(),
                        "density_matrix"),
              backends.end());
    EXPECT_EQ(optimizerRegistry().size(), 4u);
    EXPECT_TRUE(groupingRegistry().contains("greedy"));
    EXPECT_TRUE(groupingRegistry().contains("sorted-insertion"));
    EXPECT_TRUE(groupingRegistry().contains("graph-coloring"));
    EXPECT_TRUE(pipelinePresetRegistry().contains("chain"));
    EXPECT_TRUE(estimationRegistry().contains("noisy_sampled"));

    // Registry-built backends report their own names.
    auto sv = backendRegistry().get("statevector")({3, {}});
    EXPECT_STREQ(sv->name(), "statevector");
    EXPECT_EQ(sv->numQubits(), 3u);
}

TEST(Experiment, BuilderAssemblesTheSpec)
{
    ExperimentBuilder b = Experiment::builder();
    b.molecule("LiH").bond(1.6).compression(0.5);
    b.mode("sampled").optimizer("spsa").shots(1024).seed(9);
    b.grouping("sorted-insertion").reference(false);
    const ExperimentSpec &s = b.spec();
    EXPECT_EQ(s.molecule, "LiH");
    EXPECT_EQ(s.bond, 1.6);
    EXPECT_EQ(s.compression, 0.5);
    EXPECT_EQ(s.mode, "sampled");
    EXPECT_EQ(s.optimizer, "spsa");
    EXPECT_EQ(s.shots, uint64_t{1024});
    EXPECT_EQ(s.seed, uint64_t{9});
    EXPECT_EQ(s.grouping, "sorted-insertion");
    EXPECT_FALSE(s.reference);
}

TEST(Experiment, FacadeMatchesLegacyDriverBitForBit)
{
    // The acceptance contract: the spec-driven path must reproduce
    // the legacy hand-wired driver exactly at a fixed seed.
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriver legacy(
        prob.hamiltonian, ansatz, {},
        makeEstimationStrategy(
            "ideal",
            EstimationConfig{&prob.hamiltonian, {}, {}, {}}));
    VqeResult legacyRes = legacy.run();

    ExperimentBuilder b = Experiment::builder();
    b.molecule("H2").bond(0.74).reference(false);
    ExperimentResult facade = b.build().run();

    EXPECT_EQ(facade.energy(), legacyRes.energy);
    EXPECT_EQ(facade.vqe.params, legacyRes.params);
    EXPECT_EQ(facade.vqe.iterations, legacyRes.iterations);
    EXPECT_EQ(facade.trace.json(), legacy.trace().json());
}

TEST(Experiment, SampledFacadeMatchesLegacySampledDriver)
{
    MolecularProblem prob =
        buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    VqeDriverOptions o;
    o.optimizer = optimizerRegistry().get("spsa")();
    o.spsaIter = 30;
    o.sampling.shots = 2048;
    VqeDriver legacy(
        prob.hamiltonian, ansatz, o,
        makeEstimationStrategy(
            "sampled",
            EstimationConfig{&prob.hamiltonian, o.noise, o.sampling,
                             {}}));
    VqeResult legacyRes = legacy.run();

    ExperimentBuilder b = Experiment::builder();
    b.molecule("H2").bond(0.74).reference(false);
    b.mode("sampled").optimizer("spsa").spsaIter(30).shots(2048);
    ExperimentResult facade = b.build().run();

    EXPECT_EQ(facade.energy(), legacyRes.energy);
    EXPECT_EQ(facade.shots, legacy.shotsSpent());
    EXPECT_EQ(facade.trace.json(), legacy.trace().json());
}

TEST(Experiment, NoisySampledIsAOneLineComposition)
{
    // Smoke check of the composed mode: density-matrix state + shot
    // readout, selected purely by spec string.
    ExperimentBuilder b = Experiment::builder();
    b.molecule("H2").bond(0.74).reference(false);
    b.mode("noisy_sampled").optimizer("spsa").spsaIter(10);
    b.shots(512).noise(1e-3);
    ExperimentResult res = b.build().run();

    EXPECT_EQ(res.trace.mode, "noisy_sampled");
    EXPECT_GT(res.shots, uint64_t{0});
    EXPECT_LT(res.energy(), 0.0);
    // The strategy's backend really is the density-matrix model.
    EstimationConfig cfg;
    cfg.hamiltonian = &res.hamiltonian;
    auto strat = makeEstimationStrategy("noisy_sampled", cfg);
    EXPECT_STREQ(strat->makeBackend()->name(), "density_matrix");
    EXPECT_TRUE(strat->stochastic());
}

TEST(Experiment, ResultJsonCarriesSpecMetricsAndTrace)
{
    ExperimentBuilder b = Experiment::builder();
    b.molecule("H2").bond(0.74).pipeline("chain");
    ExperimentResult res = b.build().run();
    ASSERT_TRUE(res.haveFci);
    EXPECT_NEAR(res.energy(), res.fci, 1e-4);
    EXPECT_TRUE(res.compiled.present);
    EXPECT_GT(res.compiled.cnots, size_t{0});

    const std::string doc = res.json();
    EXPECT_NE(doc.find("\"spec\""), std::string::npos);
    EXPECT_NE(doc.find("\"molecule\": \"H2\""), std::string::npos);
    EXPECT_NE(doc.find("\"trace\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy\""), std::string::npos);
    EXPECT_NE(doc.find("\"compiled\""), std::string::npos);
    EXPECT_NE(doc.find("\"timing_ms\""), std::string::npos);

    // The resolved spec round-trips through the result document's
    // own spec block (replay provenance).
    ExperimentSpec back = ExperimentSpec::fromJson(res.spec.json());
    EXPECT_EQ(back.json(), res.spec.json());
    EXPECT_EQ(back.bond, 0.74);
}

TEST(Experiment, SortedInsertionGroupingSelectableBySpec)
{
    ExperimentBuilder b = Experiment::builder();
    b.molecule("H2").bond(0.74).reference(false);
    b.grouping("sorted-insertion");
    ExperimentResult res = b.build().run();
    EXPECT_GT(res.measurementSettings, size_t{0});
    EXPECT_LT(res.measurementSettings, res.hamiltonianTerms);
    // Same ideal physics regardless of grouping strategy.
    ExperimentResult greedy = Experiment::builder()
                                  .molecule("H2")
                                  .bond(0.74)
                                  .reference(false)
                                  .build()
                                  .run();
    EXPECT_NEAR(res.energy(), greedy.energy(), 1e-9);
}

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "chem/molecules.hh"

#include "perfbench.hh"

namespace perfbench {

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() -
                                                     t0)
        .count();
}

uint64_t
SeedRng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SeedRng::uniform(double lo, double hi)
{
    const double u = double(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

double
drawBond(SeedRng &rng, const std::string &molecule)
{
    const qcc::BenchmarkMolecule &m = qcc::benchmarkMolecule(molecule);
    return rng.uniform(std::max(m.sweepLo, 0.9 * m.equilibriumBond),
                       std::min(m.sweepHi, 1.1 * m.equilibriumBond));
}

SpanSet
summarizeSpans(const qcc::JsonValue &events)
{
    SpanSet out;
    // Open spans per thread, innermost last.
    std::map<std::pair<long long, long long>, std::vector<int>> open;
    for (const qcc::JsonValue &e : events.items) {
        const qcc::JsonValue *name = e.find("name");
        const qcc::JsonValue *ph = e.find("ph");
        const qcc::JsonValue *ts = e.find("ts");
        const qcc::JsonValue *pid = e.find("pid");
        const qcc::JsonValue *tid = e.find("tid");
        if (!name || !ph || !ts || !pid || !tid || ph->text.empty())
            continue;
        auto &stack = open[{(long long)pid->number,
                            (long long)tid->number}];
        if (ph->text[0] == 'B') {
            Span s;
            s.name = name->text;
            s.pid = (long long)pid->number;
            s.tid = (long long)tid->number;
            s.startUs = ts->number;
            s.parent = stack.empty() ? -1 : stack.back();
            stack.push_back(int(out.spans.size()));
            out.spans.push_back(std::move(s));
        } else if (ph->text[0] == 'E') {
            if (stack.empty()) {
                out.balanced = false;
                continue;
            }
            Span &s = out.spans[size_t(stack.back())];
            stack.pop_back();
            s.durUs = ts->number - s.startUs;
        }
    }
    for (const auto &kv : open)
        if (!kv.second.empty())
            out.balanced = false;
    for (Span &s : out.spans)
        s.selfUs = s.durUs;
    for (const Span &s : out.spans)
        if (s.parent >= 0)
            out.spans[size_t(s.parent)].selfUs -= s.durUs;
    return out;
}

std::string
layerOf(const std::string &span_name)
{
    const std::string prefix = span_name.substr(0, span_name.find('.'));
    // Spans the library names after its mechanism rather than its
    // layer.
    static const std::map<std::string, std::string> alias = {
        {"bench", "api"},     {"experiment", "api"},
        {"gradient", "vqe"},  {"sample", "sim"},
        {"executor", "sweep"},
    };
    const auto it = alias.find(prefix);
    return it == alias.end() ? prefix : it->second;
}

const std::vector<std::string> &
reportedLayers()
{
    static const std::vector<std::string> layers = {
        "api",      "chem", "ansatz", "pauli", "compile",
        "estimate", "sim",  "vqe",    "sweep", "sweepd",
    };
    return layers;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double level)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(level / 100.0 * double(v.size()));
    const size_t idx = size_t(std::clamp(rank, 1.0, double(v.size())));
    return v[idx - 1];
}

uint64_t
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    uint64_t total = 0;
    if (!fs::is_directory(dir, ec))
        return 0;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator();
         it.increment(ec))
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    return total;
}

void
resetDirectory(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "vqe_uccsd", "costing_table2", "sweepd_mix"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    if (name == "vqe_uccsd")
        return makeVqeUccsd(config);
    if (name == "costing_table2")
        return makeCostingTable2(config);
    if (name == "sweepd_mix")
        return makeSweepdMix(config);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench

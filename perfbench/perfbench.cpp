// Same-host benchmark harness for salign.
//
// Generates one seeded workload, aligns it in-process through the public
// core::SampleAlignD::align with the `salign align` defaults (threads =
// util::default_threads(), the default MUSCLE-style aligner) at the
// workload's processor count, checks every output, and reports end-to-end
// metrics. With --trace 1 it also runs the workload once with a
// PipelineStats and an AlignerPhaseStats recorder passed in, replays the
// kmer:: calls from outside, and reports per-layer metrics.
//
//   perfbench --workload genome2k-seq|genome2k-p16|prefab-p4 --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt]
//
// --tiny shrinks every workload for the self-test; --corrupt damages the
// first output before it is checked, so the self-test can prove that a bad
// output is counted as a failure. Human-readable lines go to stdout; the
// last stdout line is one JSON object that perfbench/run.py turns into the
// benchmark result. Nothing under src/ knows about this program.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bio/content_hash.hpp"
#include "bio/fasta.hpp"
#include "core/sample_align_d.hpp"
#include "kmer/kmer_profile.hpp"
#include "kmer/kmer_rank.hpp"
#include "msa/muscle_like.hpp"
#include "msa/phase_stats.hpp"
#include "msa/scoring.hpp"
#include "util/rng.hpp"
#include "util/stable_hash.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workload/evolver.hpp"
#include "workload/genome.hpp"
#include "workload/prefab.hpp"

namespace {

using namespace salign;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
};

struct WorkloadSpec {
  const char* name;
  int procs;
  bool genome;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"genome2k-seq", 1, true},
    {"genome2k-p16", 16, true},
    {"prefab-p4", 4, false},
};

/// Set-ups run after each timed repetition; setup_s is the median of all
/// of them. One set-up takes at most a tenth of a second, and spreading
/// them over the run keeps a short burst of host noise from setting the
/// median.
constexpr int kSetupsPerRep = 2;
/// Timed repetitions are at least this many, so every run compares output
/// digests between repetitions and every case latency is a median of three
/// or more.
constexpr int kMinReps = 3;

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- workload generation ---------------------------------------------------

/// One generated workload: the alignment cases plus what scores them.
struct Inputs {
  std::vector<std::vector<bio::Sequence>> cases;
  /// PREFAB: the evolver's exact reference of each case.
  std::vector<msa::Alignment> references;
  double parse_seconds = 0.0;
};

/// The simulated M. acetivorans proteome: fixed, like the paper's genome;
/// the seed only chooses which sequences are sampled from it.
workload::GenomeParams genome_params(bool tiny) {
  workload::GenomeParams gp;
  if (tiny) {
    gp.num_families = 6;
    gp.mean_family_size = 4.0;
    gp.num_orphans = 12;
    gp.mean_length = 80;
  }
  return gp;
}

workload::PrefabParams prefab_params(bool tiny) {
  workload::PrefabParams pp;
  pp.num_cases = tiny ? 3 : 300;
  if (tiny) {
    pp.min_sequences = 6;
    pp.max_sequences = 8;
    pp.min_length = 40;
    pp.max_length = 70;
  }
  return pp;
}

/// The PREFAB suite with stratified case sizes. prefab_cases draws each
/// case's sequence count and root length at random, so the mix of case
/// sizes, and with it the per-case latency percentiles, would change with
/// the seed. Here case i takes them from fixed strides through the
/// PrefabParams ranges and keeps prefab_cases' divergence ladder; the seed
/// sets each case's evolver seed, hence its sequences and reference.
std::vector<workload::PrefabCase> prefab_suite(std::uint64_t seed, bool tiny) {
  const workload::PrefabParams all = prefab_params(tiny);
  const std::size_t n = all.num_cases;  // coprime with 37: a permutation
  util::Rng rng(seed);
  std::vector<workload::PrefabCase> cases;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    workload::PrefabParams one = all;
    one.num_cases = 1;
    one.min_sequences = one.max_sequences =
        all.min_sequences +
        (i * 7) % (all.max_sequences - all.min_sequences + 1);
    one.min_length = one.max_length =
        all.min_length +
        (i * 37) % n * (all.max_length - all.min_length) / (n - 1);
    one.min_divergence = one.max_divergence =
        all.min_divergence + (all.max_divergence - all.min_divergence) * t;
    one.seed = rng.next();
    cases.push_back(std::move(workload::prefab_cases(one).front()));
  }
  return cases;
}

/// Serializes `seqs` to FASTA and parses it back, as `salign align` reads
/// its input; adds the parse time to `parse_seconds`.
std::vector<bio::Sequence> fasta_roundtrip(
    const std::vector<bio::Sequence>& seqs, double& parse_seconds) {
  std::ostringstream os;
  bio::write_fasta(os, seqs);
  const std::string text = os.str();
  util::Stopwatch sw;
  std::vector<bio::Sequence> out = bio::parse_fasta(text);
  parse_seconds += sw.seconds();
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, const Options& opt) {
  Inputs in;
  if (spec.genome) {
    const workload::GenomeSimulator genome(genome_params(opt.tiny));
    const std::size_t n = std::min<std::size_t>(opt.tiny ? 30 : 2000,
                                                genome.pool().size());
    in.cases.push_back(
        fasta_roundtrip(genome.sample(n, opt.seed), in.parse_seconds));
  } else {
    for (workload::PrefabCase& c : prefab_suite(opt.seed, opt.tiny)) {
      in.cases.push_back(fasta_roundtrip(c.sequences, in.parse_seconds));
      in.references.push_back(std::move(c.reference));
    }
  }
  return in;
}

util::Digest128 inputs_digest(const Inputs& in) {
  util::StableHash h;
  for (const auto& c : in.cases) {
    const util::Digest128 d = bio::sequence_set_hash(c);
    h.u64(d.hi);
    h.u64(d.lo);
  }
  return h.digest128();
}

/// Repeats the workload's set-up, timing each one and requiring every
/// repetition to produce the same inputs as the first.
class SetupTimer {
 public:
  SetupTimer(const WorkloadSpec& spec, const Options& opt)
      : spec_(spec), opt_(opt) {}

  Inputs once() {
    util::Stopwatch sw;
    Inputs in = make_inputs(spec_, opt_);
    setup_s_.push_back(sw.seconds());
    parse_s_.push_back(in.parse_seconds);
    const util::Digest128 d = inputs_digest(in);
    if (setup_s_.size() == 1) first_ = d;
    if (d != first_)
      throw std::runtime_error("set-up is not deterministic in the seed");
    return in;
  }

  [[nodiscard]] double setup_seconds() const { return median(setup_s_); }
  [[nodiscard]] double parse_seconds() const { return median(parse_s_); }

 private:
  const WorkloadSpec& spec_;
  const Options& opt_;
  std::vector<double> setup_s_, parse_s_;
  util::Digest128 first_{};
};

/// True alignments of the simulated genome's gene families.
/// workload::GenomeSimulator drops them (record_reference = false), but it
/// draws every family's parameters from one Rng stream and recording the
/// reference consumes no randomness, so replaying that stream with the
/// reference switched on re-evolves the same families. The replay is
/// checked sequence by sequence against the simulator's pool.
std::vector<workload::Family> genome_families(
    const workload::GenomeParams& params) {
  util::Rng rng(params.seed);
  std::vector<workload::Family> out;
  for (std::size_t f = 0; f < params.num_families; ++f) {
    const double p = 1.0 / std::max(1.0, params.mean_family_size);
    const std::size_t size =
        2 + static_cast<std::size_t>(rng.geometric(p, 256));
    const double spread = 0.35;
    const double z = (rng.uniform() + rng.uniform() + rng.uniform() - 1.5) * 2.0;
    const auto length = static_cast<std::size_t>(std::max(
        40.0, static_cast<double>(params.mean_length) * std::exp(spread * z) *
                  std::exp(-spread * spread / 2.0)));
    workload::EvolveParams ep;
    ep.num_sequences = size;
    ep.root_length = length;
    ep.mean_branch_distance =
        rng.uniform(params.min_divergence, params.max_divergence);
    ep.indel_rate = 0.04;
    ep.record_reference = true;
    ep.seed = rng.next();
    ep.id_prefix = "MA_fam" + std::to_string(f) + "_";
    out.push_back(workload::evolve_family(ep));
  }
  const workload::GenomeSimulator genome(params);
  std::size_t at = 0;
  for (const workload::Family& fam : out)
    for (const bio::Sequence& s : fam.sequences)
      if (at >= genome.pool().size() || !(genome.pool()[at++] == s))
        throw std::runtime_error(
            "genome family replay does not match workload::GenomeSimulator");
  return out;
}

// ---- output checks -----------------------------------------------------------

/// An output is correct when it is a valid alignment whose rows degap to
/// the inputs, in input order.
bool output_matches_input(const msa::Alignment& out,
                          const std::vector<bio::Sequence>& in) {
  try {
    out.validate();
  } catch (const std::exception&) {
    return false;
  }
  if (out.num_rows() != in.size()) return false;
  for (std::size_t r = 0; r < in.size(); ++r)
    if (!(out.degapped(r) == in[r])) return false;
  return true;
}

util::Digest128 output_digest(const msa::Alignment& aln) {
  util::StableHash h;
  for (const msa::AlignedRow& row : aln.rows()) {
    h.str(row.id);
    h.update(row.cells.data(), row.cells.size());
  }
  return h.digest128();
}

/// Replaces one residue of the first row, so the row no longer degaps to
/// its input (the self-test's deliberately corrupted output).
msa::Alignment corrupted(const msa::Alignment& aln) {
  std::vector<msa::AlignedRow> rows(aln.rows().begin(), aln.rows().end());
  for (std::uint8_t& cell : rows.front().cells) {
    if (cell != msa::Alignment::kGap) {
      cell = static_cast<std::uint8_t>(cell == 0 ? 1 : 0);
      break;
    }
  }
  return msa::Alignment(std::move(rows), aln.alphabet_kind());
}

// ---- timed runs ----------------------------------------------------------------

struct Untraced {
  std::vector<double> rep_seconds;  ///< wall of all align calls of a rep
  std::vector<std::vector<double>> case_ms;  ///< per case, every call
  double cpu_seconds = 0.0;         ///< process CPU inside all align calls
  std::vector<util::Digest128> digests;  ///< per case, first repetition
  std::vector<msa::Alignment> outputs;   ///< per case, first repetition
  std::vector<bool> valid;  ///< per case, first repetition passed its checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Aligns every case repeatedly until `seconds` of align wall time have
/// been measured (and at least kMinReps times), re-running the set-up
/// between repetitions. A call fails when it throws, when its output does
/// not degap to its input, or when its output digest differs from the
/// first repetition's.
Untraced run_untraced(const core::SampleAlignD& sad, const Inputs& in,
                      const Options& opt, SetupTimer& setup) {
  Untraced u;
  u.case_ms.resize(in.cases.size());
  double measured = 0.0;
  for (int rep = 0; rep < kMinReps || measured < opt.seconds; ++rep) {
    double rep_seconds = 0.0;
    for (std::size_t i = 0; i < in.cases.size(); ++i) {
      ++u.attempted;
      msa::Alignment out;
      bool ok = true;
      const double cpu0 = process_cpu_seconds();
      util::Stopwatch call;
      try {
        out = sad.align(in.cases[i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "case %zu rep %d threw: %s\n", i, rep, e.what());
        ok = false;
      }
      const double dt = call.seconds();
      u.cpu_seconds += process_cpu_seconds() - cpu0;
      rep_seconds += dt;
      u.case_ms[i].push_back(dt * 1e3);

      if (ok && opt.corrupt && u.attempted == 1) out = corrupted(out);
      ok = ok && output_matches_input(out, in.cases[i]);
      const util::Digest128 d = output_digest(out);
      if (rep == 0) {
        u.digests.push_back(d);
        u.outputs.push_back(std::move(out));
        u.valid.push_back(ok);
      } else {
        ok = ok && d == u.digests[i];
      }
      if (!ok) ++u.failed;
    }
    u.rep_seconds.push_back(rep_seconds);
    measured += rep_seconds;
    for (int i = 0; i < kSetupsPerRep; ++i) (void)setup.once();
  }
  return u;
}

/// Each case's median call latency over the repetitions, in ms. Medians
/// per case keep a slow burst on the host, which hits a few calls of one
/// repetition, out of wall_s and the latency percentiles.
std::vector<double> case_medians_ms(const Untraced& u) {
  std::vector<double> out;
  for (const std::vector<double>& calls : u.case_ms)
    out.push_back(median(calls));
  return out;
}

// ---- quality -------------------------------------------------------------------

struct Quality {
  double sp = 0.0;
  double q = 0.0;
  double tc = 0.0;
  std::size_t scored = 0;  ///< cases (PREFAB) or families (genome) scored
};

/// Quality is scored on first-repetition outputs that passed their checks
/// (a failed run reports zeros for the cases it could not score).
Quality prefab_quality(const Untraced& u, const Inputs& in,
                       const bio::SubstitutionMatrix& m) {
  Quality qa;
  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    if (!u.valid[i]) continue;
    qa.sp += msa::sp_score(u.outputs[i], m, m.default_gaps());
    qa.q += msa::q_score(u.outputs[i], in.references[i]);
    qa.tc += msa::tc_score(u.outputs[i], in.references[i]);
    ++qa.scored;
  }
  if (qa.scored > 0) {
    qa.q /= static_cast<double>(qa.scored);
    qa.tc /= static_cast<double>(qa.scored);
  }
  return qa;
}

/// Residue pairs a reference aligns: sum over its columns of C(residues, 2).
double reference_pairs(const msa::Alignment& ref) {
  double pairs = 0.0;
  for (std::size_t c = 0; c < ref.num_cols(); ++c) {
    double k = 0.0;
    for (std::size_t r = 0; r < ref.num_rows(); ++r)
      k += ref.is_gap(r, c) ? 0.0 : 1.0;
    pairs += k * (k - 1.0) / 2.0;
  }
  return pairs;
}

/// Row pairs sampled for the SP score of a genome alignment (of ~2M):
/// exact SP of 2000 rows costs seconds, the library's deterministic
/// pair sample keeps it off the run's clock.
constexpr std::size_t kGenomeSpPairs = 100000;

/// Quality of the genome alignment against the true alignments of the gene
/// families it samples (orphans have no homologs and are not scored). The
/// reference is every family with at least two sampled members, restricted
/// to those members. Q is the share of all its aligned residue pairs that
/// the output also aligns (each family's Q weighted by its pair count); TC
/// is the mean over families.
Quality genome_quality(const Untraced& u, const Inputs& in,
                       const bio::SubstitutionMatrix& m, bool tiny) {
  const msa::Alignment& out = u.outputs.front();
  Quality qa;
  if (!u.valid.front()) return qa;
  qa.sp = msa::sp_score(out, m, m.default_gaps(), kGenomeSpPairs);

  const std::vector<workload::Family> families =
      genome_families(genome_params(tiny));
  // family -> (output rows, family leaves), from ids "MA_fam<f>_<leaf>"
  std::map<std::size_t, std::pair<std::vector<std::size_t>,
                                  std::vector<std::size_t>>>
      members;
  const std::vector<bio::Sequence>& seqs = in.cases.front();
  for (std::size_t r = 0; r < seqs.size(); ++r) {
    const std::string& id = seqs[r].id();
    if (id.rfind("MA_fam", 0) != 0) continue;
    const std::size_t sep = id.find('_', 6);
    const std::size_t f = std::stoul(id.substr(6, sep - 6));
    const std::size_t leaf = std::stoul(id.substr(sep + 1));
    members[f].first.push_back(r);
    members[f].second.push_back(leaf);
  }
  double pairs = 0.0;
  for (const auto& [f, rows] : members) {
    if (rows.first.size() < 2) continue;
    const msa::Alignment test = out.subset(rows.first);
    msa::Alignment ref = families.at(f).reference.subset(rows.second);
    ref.strip_all_gap_columns();
    const double w = reference_pairs(ref);
    qa.q += w * msa::q_score(test, ref);
    pairs += w;
    qa.tc += msa::tc_score(test, ref);
    ++qa.scored;
  }
  if (qa.scored == 0 || pairs == 0.0)
    throw std::runtime_error("genome sample holds no family pair to score");
  qa.q /= pairs;
  qa.tc /= static_cast<double>(qa.scored);
  return qa;
}

// ---- traced run ----------------------------------------------------------------

/// Stage groups of PipelineStats reported as core.* metrics (stage names
/// as the pipeline reports them).
const std::vector<std::pair<std::string, std::vector<std::string>>>&
core_stage_groups() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      groups{
          {"core.local_rank_s", {"local k-mer rank"}},
          {"core.global_rank_s", {"globalized k-mer rank"}},
          {"core.redistribute_s",
           {"bucket partition", "sequence redistribution"}},
          {"core.bucket_align_s", {"local alignment"}},
          {"core.ancestor_s",
           {"ancestor extraction", "global ancestor alignment (root)"}},
          {"core.tweak_s", {"ancestor profile tweak"}},
          {"core.glue_s", {"glue gather", "glue (root)"}},
      };
  return groups;
}

/// Aligner phases of msa::AlignerPhaseStats reported as msa.* metrics.
const std::vector<std::pair<std::string, std::string>>& msa_phases() {
  static const std::vector<std::pair<std::string, std::string>> phases{
      {"msa.stage1_distance_s", "stage1 distance matrix"},
      {"msa.stage1_tree_s", "stage1 guide tree"},
      {"msa.stage1_progressive_s", "stage1 progressive"},
      {"msa.stage2_distance_s", "stage2 distance matrix"},
      {"msa.stage2_tree_s", "stage2 guide tree"},
      {"msa.stage2_progressive_s", "stage2 progressive"},
  };
  return phases;
}

/// Similarity evaluations of the rank stages: every sequence of a block
/// against its block (local rank), then every sequence against the k·p
/// exchanged samples (globalized rank), with the pipeline's block dealing
/// (ceil(n/p) per rank) and default k = p-1.
std::uint64_t rank_pairs(std::size_t n, int procs) {
  if (procs <= 1) return 0;
  const auto p = static_cast<std::size_t>(procs);
  const std::size_t chunk = (n + p - 1) / p;
  std::uint64_t local = 0;
  std::uint64_t samples = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const std::size_t begin = std::min(n, r * chunk);
    const std::size_t w = std::min(n, begin + chunk) - begin;
    local += static_cast<std::uint64_t>(w) * w;
    samples += std::min(p - 1, w);
  }
  return local + static_cast<std::uint64_t>(n) * samples;
}

std::vector<Metric> traced_metrics(const core::SampleAlignDConfig& cfg,
                                   const Inputs& in, const Untraced& u,
                                   double wall_s, std::uint64_t& attempted,
                                   std::uint64_t& failed) {
  msa::AlignerPhaseStats recorder;
  core::SampleAlignDConfig tcfg = cfg;
  tcfg.phase_stats = &recorder;
  const core::SampleAlignD traced(tcfg);

  std::map<std::string, double> stage_wall;   // stage name -> summed max wall
  std::map<std::string, double> phase_wall;   // phase name -> summed wall
  std::map<std::string, std::uint64_t> phase_runs;
  double traced_wall = 0.0, overhead = 0.0, modeled = 0.0, comm = 0.0;
  double load_factor = 0.0, max_over_mean = 0.0;
  std::uint64_t bytes = 0, pairs = 0;
  const par::ClusterCostModel model;

  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    core::PipelineStats st;
    ++attempted;
    util::Stopwatch call;
    msa::Alignment out;
    try {
      out = traced.align(in.cases[i], &st);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced case %zu threw: %s\n", i, e.what());
      ++failed;
      continue;
    }
    const double dt = call.seconds();
    if (output_digest(out) != u.digests[i]) ++failed;
    traced_wall += dt;

    // align() resets the recorder on every call: snapshot and sum.
    for (const msa::AlignerPhaseStats::Phase& ph : recorder.snapshot()) {
      phase_wall[ph.name] += ph.wall_seconds;
      phase_runs[ph.name] += ph.runs;
    }
    double stages_sum = 0.0;
    for (const core::StageStats& s : st.stages) {
      stage_wall[s.name] += s.max_wall_seconds();
      stages_sum += s.max_wall_seconds();
      comm += s.comm_seconds(model, st.num_procs);
      if (s.name == "local alignment" && !s.rank_wall_seconds.empty()) {
        double sum = 0.0, mx = 0.0;
        std::size_t busy = 0;
        for (double w : s.rank_wall_seconds) {
          sum += w;
          mx = std::max(mx, w);
          busy += w > 0.0 ? 1 : 0;
        }
        max_over_mean += busy > 0 ? mx / (sum / static_cast<double>(busy))
                                  : 1.0;
      }
    }
    overhead += dt - stages_sum;
    modeled += st.modeled_seconds(model);
    bytes += st.total_bytes();
    load_factor += st.load_factor();
    pairs += rank_pairs(in.cases[i].size(), cfg.num_procs);
  }
  const auto cases = static_cast<double>(in.cases.size());

  std::vector<Metric> m;
  const auto stage_sum = [&](const std::vector<std::string>& names) {
    double t = 0.0;
    for (const std::string& n : names) {
      const auto it = stage_wall.find(n);
      if (it == stage_wall.end())
        throw std::runtime_error("PipelineStats has no stage '" + n + "'");
      t += it->second;
    }
    return t;
  };

  // kmer: replay the layer's public calls on the workload's input.
  const kmer::KmerParams kp = msa::MuscleOptions{}.kmer;
  double profile_s = 0.0, distance_s = 0.0, distance_pairs = 0.0;
  for (const auto& c : in.cases) {
    util::Stopwatch sw;
    const std::vector<kmer::KmerProfile> profiles = kmer::build_profiles(c, kp);
    profile_s += sw.restart();
    const util::SymmetricMatrix<double> d = kmer::distance_matrix(c, kp);
    distance_s += sw.seconds();
    distance_pairs += static_cast<double>(c.size()) *
                      static_cast<double>(c.size() - 1) / 2.0;
    if (profiles.size() != c.size() || d.size() != c.size())
      throw std::runtime_error("kmer replay returned the wrong size");
  }
  const double rank_s =
      stage_sum({"local k-mer rank"}) + stage_sum({"globalized k-mer rank"});
  m.push_back({"kmer.distance_matrix_s", distance_s, "s"});
  m.push_back({"kmer.distance_pairs_per_s", distance_pairs / distance_s, "1/s"});
  m.push_back({"kmer.profile_build_s", profile_s, "s"});
  m.push_back({"kmer.rank_s", rank_s, "s"});
  m.push_back({"kmer.rank_pairs", static_cast<double>(pairs), "count"});

  for (const auto& [metric, names] : core_stage_groups())
    m.push_back({metric, stage_sum(names), "s"});
  m.push_back({"core.overhead_s", overhead, "s"});
  m.push_back({"core.load_factor", load_factor / cases, "ratio"});
  m.push_back({"core.bucket_align_max_over_mean", max_over_mean / cases,
               "ratio"});
  m.push_back({"core.modeled_cluster_s", modeled, "s"});

  m.push_back({"par.bytes_total", static_cast<double>(bytes), "bytes"});
  m.push_back({"par.comm_model_s", comm, "s"});

  for (const auto& [metric, phase] : msa_phases()) {
    if (!phase_wall.contains(phase))
      throw std::runtime_error("AlignerPhaseStats has no phase '" + phase + "'");
    m.push_back({metric, phase_wall[phase], "s"});
  }
  m.push_back({"msa.aligner_runs",
               static_cast<double>(phase_runs["stage1 distance matrix"]),
               "count"});

  // CPU per pass, so that it compares with wall_s whatever the rep count.
  const auto reps = static_cast<double>(u.rep_seconds.size());
  const double timed_wall = std::accumulate(u.rep_seconds.begin(),
                                            u.rep_seconds.end(), 0.0);
  m.push_back({"util.cpu_s", u.cpu_seconds / reps, "s"});
  m.push_back({"util.cpu_util",
               u.cpu_seconds / (timed_wall * static_cast<double>(cfg.threads)),
               "ratio"});
  m.push_back({"trace.align_wall_s", traced_wall, "s"});
  m.push_back({"trace.overhead_s", traced_wall - wall_s, "s"});
  return m;
}

// ---- driver --------------------------------------------------------------------

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = t == "1";
      have_trace = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--tiny] [--corrupt]");
  return o;
}

std::string compiler_name() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int run(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (opt.workload == w.name) spec = &w;
  if (spec == nullptr)
    throw std::invalid_argument("unknown workload " + opt.workload);

  SetupTimer setup(*spec, opt);
  const Inputs in = setup.once();

  core::SampleAlignDConfig cfg;  // the `salign align` defaults but --procs
  cfg.num_procs = spec->procs;
  cfg.threads = util::default_threads();
  const core::SampleAlignD sad(cfg);

  const Untraced u = run_untraced(sad, in, opt, setup);
  const double rss = peak_rss_mib();
  const std::vector<double> case_ms = case_medians_ms(u);
  const double wall_s =
      std::accumulate(case_ms.begin(), case_ms.end(), 0.0) * 1e-3;
  std::uint64_t attempted = u.attempted;
  std::uint64_t failed = u.failed;

  std::vector<Metric> m;
  m.push_back({"wall_s", wall_s, "s"});
  m.push_back({"setup_s", setup.setup_seconds(), "s"});
  m.push_back({"peak_rss_mb", rss, "MiB"});
  if (opt.trace) {
    std::vector<Metric> layers =
        traced_metrics(cfg, in, u, wall_s, attempted, failed);
    m.insert(m.end(), layers.begin(), layers.end());
    m.push_back({"bio.fasta_parse_s", setup.parse_seconds(), "s"});
  } else {
    const bio::SubstitutionMatrix& matrix = *cfg.matrix;
    const Quality qa = spec->genome
                           ? genome_quality(u, in, matrix, opt.tiny)
                           : prefab_quality(u, in, matrix);
    m.push_back({"sp_score", qa.sp, "score"});
    m.push_back({"q_score", qa.q, "fraction"});
    m.push_back({"tc_score", qa.tc, "fraction"});
    m.push_back({"case_p50_ms", percentile(case_ms, 0.5), "ms"});
    m.push_back({"case_p90_ms", percentile(case_ms, 0.9), "ms"});
    m.push_back({"scored_units", static_cast<double>(qa.scored), "count"});
  }
  m.push_back({"error_rate",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "fraction"});
  m.push_back({"align_calls", static_cast<double>(u.attempted), "count"});
  m.push_back({"timed_reps", static_cast<double>(u.rep_seconds.size()),
               "count"});

  util::StableHash all;
  for (const util::Digest128& d : u.digests) {
    all.u64(d.hi);
    all.u64(d.lo);
  }
  const std::string digest = all.digest128().hex();

  std::printf("workload %s  seed %llu  procs %d  threads %u  cases %zu\n",
              spec->name, static_cast<unsigned long long>(opt.seed),
              spec->procs, cfg.threads, in.cases.size());
  for (const Metric& x : m)
    std::printf("  %-34s %16.6f  %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  std::printf("  output digest %s\n", digest.c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(m[i].name) + ": {\"value\": " + json_number(m[i].value) +
            ", \"unit\": " + json_string(m[i].unit) + "}";
  }
  json += "}, \"context\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"threads\": " + std::to_string(cfg.threads) +
          ", \"compiler\": " + json_string(compiler_name()) +
          ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
          ", \"output_digest\": " + json_string(digest) + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

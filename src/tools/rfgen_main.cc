// rfgen — generate workload RFBIN binaries to disk.
//
//   rfgen list
//   rfgen spec NAME out.rfbin         # one of the 29 SPEC-like programs
//   rfgen kraken NAME out.rfbin
//   rfgen cve NAME out.rfbin          # prints attack/benign inputs
//   rfgen synth SEED out.rfbin        # generic synthetic program
//   rfgen server SEED out.rfbin       # request/response heap-churn server
//   rfgen uaf SEED out.rfbin          # forensics workload (mode-gated bug)
//   rfgen churn SEED out.rfbin        # fragmentation workload (mode-gated
//                                     # freelist-corruption bugs)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/tools/tool_io.h"
#include "src/workloads/cve.h"
#include "src/workloads/kraken.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rfgen list\n"
               "       rfgen spec NAME out.rfbin\n"
               "       rfgen kraken NAME out.rfbin\n"
               "       rfgen cve NAME out.rfbin\n"
               "       rfgen synth SEED out.rfbin\n"
               "       rfgen server SEED out.rfbin\n"
               "       rfgen uaf SEED out.rfbin\n"
               "       rfgen churn SEED out.rfbin\n"
               "Programs read inputs[0]=iterations, inputs[1]=mode (SPEC/Kraken/synth);\n"
               "the server program reads inputs[0]=requests; the uaf program reads\n"
               "inputs[0]=mode (0 benign, 1 use-after-free, 2 double free); the churn\n"
               "program reads inputs[0]=operations, inputs[1]=mode (0 benign, 1 forged\n"
               "freelist link, 2 overlapping free).\n");
  return 2;
}

int Save(const BinaryImage& img, const std::string& path) {
  const Status s = SaveImageFile(path, img);
  if (!s.ok()) {
    std::fprintf(stderr, "rfgen: %s\n", s.error().c_str());
    return 1;
  }
  std::fprintf(stderr, "rfgen: wrote %s (%llu bytes)\n", path.c_str(),
               static_cast<unsigned long long>(img.TotalBytes()));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  if (cmd == "list") {
    std::printf("spec:");
    for (const SpecBenchmark& b : SpecSuite()) {
      std::printf(" %s", b.name.c_str());
    }
    std::printf("\nkraken:");
    for (const KrakenBenchmark& b : KrakenSuite()) {
      std::printf(" %s", b.name.c_str());
    }
    std::printf("\ncve:");
    for (const VulnCase& c : CveCases()) {
      std::printf(" \"%s\"", c.name.c_str());
    }
    std::printf("\n(plus 480 Juliet CWE-122 cases via the bench harness)\n");
    return 0;
  }
  if (argc != 4) {
    return Usage();
  }
  const std::string name = argv[2];
  const std::string out = argv[3];
  // The generators below take a numeric SEED where the others take a NAME.
  uint64_t seed = 0;
  if ((cmd == "synth" || cmd == "server" || cmd == "uaf" || cmd == "churn") &&
      !ParseUnsignedArg("rfgen", "SEED", name, &seed)) {
    return 2;
  }
  if (cmd == "spec") {
    for (const SpecBenchmark& b : SpecSuite()) {
      if (b.name == name) {
        std::fprintf(stderr, "rfgen: train iters=%llu ref iters=%llu (mode: train=0x3e, "
                     "ref=0x3f)\n",
                     static_cast<unsigned long long>(b.train_iters),
                     static_cast<unsigned long long>(b.ref_iters));
        return Save(BuildSpecBenchmark(b), out);
      }
    }
    std::fprintf(stderr, "rfgen: unknown spec benchmark %s\n", name.c_str());
    return 1;
  }
  if (cmd == "kraken") {
    for (const KrakenBenchmark& b : KrakenSuite()) {
      if (b.name == name) {
        return Save(BuildKrakenBenchmark(b), out);
      }
    }
    std::fprintf(stderr, "rfgen: unknown kraken benchmark %s\n", name.c_str());
    return 1;
  }
  if (cmd == "cve") {
    for (const VulnCase& c : CveCases()) {
      if (c.name.find(name) != std::string::npos) {
        std::fprintf(stderr, "rfgen: %s\n", c.name.c_str());
        std::fprintf(stderr, "rfgen: attack input: %llu   benign input: %llu\n",
                     static_cast<unsigned long long>(c.attack_inputs.at(0)),
                     static_cast<unsigned long long>(c.benign_inputs.at(0)));
        return Save(c.image, out);
      }
    }
    std::fprintf(stderr, "rfgen: unknown cve %s\n", name.c_str());
    return 1;
  }
  if (cmd == "synth") {
    SynthParams p;
    p.seed = seed;
    return Save(GenerateSynthProgram(p), out);
  }
  if (cmd == "server") {
    ServerParams p;
    p.seed = seed;
    return Save(GenerateServerProgram(p), out);
  }
  if (cmd == "uaf") {
    UafParams p;
    p.seed = seed;
    std::fprintf(stderr,
                 "rfgen: inputs[0]=0 benign, =1 use-after-free, =2 double free\n");
    return Save(GenerateUafProgram(p), out);
  }
  if (cmd == "churn") {
    ChurnParams p;
    p.seed = seed;
    std::fprintf(stderr,
                 "rfgen: inputs[0]=operations, inputs[1]=0 benign, =1 forged "
                 "freelist link, =2 overlapping free\n");
    return Save(GenerateChurnProgram(p), out);
  }
  return Usage();
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }

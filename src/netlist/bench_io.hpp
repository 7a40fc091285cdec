// ISCAS89 ".bench" format reader/writer.
//
// The classic format supports INPUT/OUTPUT declarations and assignments of
// the form  G14 = NAND(G0, G8)  with operators AND, OR, NAND, NOR, NOT,
// BUFF, XOR, XNOR, DFF. We additionally accept/emit the complex-gate
// operators AOI21, AOI22, OAI21, OAI22, MUX2 produced by technology mapping
// (the paper maps to a library "containing complex gate types e.g. aoi and
// mux"); files restricted to the classic operators remain fully standard.
#pragma once

#include "netlist/netlist.hpp"

#include <iosfwd>
#include <string>

namespace flh {

/// Parse a .bench netlist. Throws std::runtime_error with a line number on
/// malformed input. The netlist keeps a pointer to `lib`, so a temporary
/// library is rejected at compile time.
[[nodiscard]] Netlist readBench(std::istream& in, const std::string& name, const Library& lib);
[[nodiscard]] Netlist readBenchString(const std::string& text, const std::string& name,
                                      const Library& lib);
[[nodiscard]] Netlist readBenchFile(const std::string& path, const Library& lib);
Netlist readBench(std::istream&, const std::string&, const Library&&) = delete;
Netlist readBenchString(const std::string&, const std::string&, const Library&&) = delete;
Netlist readBenchFile(const std::string&, const Library&&) = delete;

/// Serialize a netlist back to .bench. Round-trips with readBench.
void writeBench(std::ostream& os, const Netlist& nl);
[[nodiscard]] std::string writeBenchString(const Netlist& nl);

} // namespace flh

// Circuit description for the mini-SPICE engine.
//
// Nodes are referenced by name; "0" (or "gnd") is ground. Elements are
// resistors, capacitors, independent voltage sources and level-1 MOSFETs.
// The SABL/CVSL assemblies in src/sabl build these circuits from DPDNs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spice/mosfet.hpp"
#include "spice/sources.hpp"
#include "tech/technology.hpp"

namespace sable::spice {

/// Internal node index; 0 is ground.
using SpiceNode = std::size_t;
inline constexpr SpiceNode kGround = 0;

struct Resistor {
  SpiceNode a = 0;
  SpiceNode b = 0;
  double resistance = 0.0;
};

struct Capacitor {
  SpiceNode a = 0;
  SpiceNode b = 0;
  double capacitance = 0.0;
};

struct VoltageSource {
  std::string name;
  SpiceNode positive = 0;
  SpiceNode negative = 0;
  Waveform waveform;
};

struct Mosfet {
  std::string name;
  MosType type = MosType::kNmos;
  SpiceNode drain = 0;
  SpiceNode gate = 0;
  SpiceNode source = 0;
  MosModelParams params;
  double width = 0.0;
  double length = 0.0;
};

class Circuit {
 public:
  /// Returns the node index for `name`, creating it on first use.
  SpiceNode node(const std::string& name);
  /// Looks up an existing node; throws InvalidArgument if unknown.
  SpiceNode find_node(const std::string& name) const;
  const std::string& node_name(SpiceNode n) const;
  /// Number of nodes including ground.
  std::size_t node_count() const { return names_.size(); }

  void add_resistor(const std::string& a, const std::string& b, double ohms);
  void add_capacitor(const std::string& a, const std::string& b,
                     double farads);
  void add_vsource(const std::string& name, const std::string& positive,
                   const std::string& negative, Waveform waveform);
  void add_mosfet(const std::string& name, MosType type,
                  const std::string& drain, const std::string& gate,
                  const std::string& source, const MosModelParams& params,
                  double width, double length);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }

 private:
  std::vector<std::string> names_ = {"0"};
  std::map<std::string, SpiceNode> index_ = {{"0", 0}, {"gnd", 0}};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> vsources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace sable::spice

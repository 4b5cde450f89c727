// Seeded input generators. Every input is a pure function of (seed,
// index): the same seed gives the same databases, rules and queries in
// the same order, whatever the speed of the code under test.

#ifndef PERFBENCH_DRIVER_INPUTS_H_
#define PERFBENCH_DRIVER_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/atom.h"

namespace perfbench {

/// Open world: a database of `min_facts` to `max_facts` facts over two
/// binary and two unary predicates, a guarded ontology of three TGDs whose
/// chase is infinite (existential recursion a0 -> a1 -> a0), and
/// `num_queries` tree-shaped UCQs q00, q01, ... (a path of 1-2 binary
/// atoms from the answer variable, ending in a unary marker; every third
/// query has two disjuncts).
std::string OpenWorldProgram(uint64_t seed, uint64_t index, int num_queries,
                             int min_facts, int max_facts);

/// Closed world: the TGDs (join-heavy full rules plus one weakly-acyclic
/// existential rule) and the eight UCQs every closed-world database is
/// asked.
std::string ClosedWorldRules();

/// The shape class of a closed-world query name: "path", "triangle" or
/// "marker".
std::string ClosedWorldShape(const std::string& query_name);

/// The index-th closed-world database: a random directed graph `e` of
/// `min_nodes` to `max_nodes` nodes with two out-edges per node and about
/// 10% of nodes marked `m`.
std::vector<gqe::Atom> ClosedWorldFacts(uint64_t seed, uint64_t index,
                                        int min_nodes, int max_nodes);

/// Renders facts as program text, one per line.
std::string FactsText(const std::vector<gqe::Atom>& facts);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_INPUTS_H_

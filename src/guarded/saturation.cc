#include "guarded/saturation.h"

#include <memory>
#include <unordered_set>

namespace gqe {

Instance GroundSaturation(const Instance& db, const TgdSet& sigma,
                          TypeClosureEngine* engine) {
  std::unique_ptr<TypeClosureEngine> owned;
  if (engine == nullptr) {
    owned = std::make_unique<TypeClosureEngine>(sigma);
    engine = owned.get();
  }
  Instance ground;
  ground.InsertAll(db);
  bool changed = true;
  while (changed) {
    changed = false;
    // Fact ids are append-only, but we only close the bags of the facts
    // present at the start of the round; new facts get their bags next
    // round. The guard's elements are copied out of its span before any
    // insert can grow the columns.
    const size_t snapshot_size = ground.size();
    for (size_t i = 0; i < snapshot_size; ++i) {
      std::vector<Term> elements;
      CollectGroundTerms(ground.args_of(i), &elements);
      // Bag: all current ground atoms over the guard's elements.
      std::vector<Atom> bag_atoms = ground.AtomsOver(elements);
      for (const Atom& atom : engine->Closure(bag_atoms, elements)) {
        if (ground.Insert(atom)) changed = true;
      }
    }
  }
  return ground;
}

bool CertainAtom(const Instance& db, const TgdSet& sigma, const Atom& fact,
                 TypeClosureEngine* engine) {
  return GroundSaturation(db, sigma, engine).Contains(fact);
}

}  // namespace gqe

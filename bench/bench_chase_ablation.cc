// Ablation: chase engine — oblivious vs restricted chase on a workload
// whose heads are often already satisfied. The restricted chase skips
// those triggers; the table shows the facts and time it saves.

#include <cstdio>

#include "chase/chase.h"
#include "parser/parser.h"
#include "workload/generators.h"
#include "workload/report.h"

namespace gqe {
namespace {

void Run() {
  TgdSet sigma = ParseTgds("abp(X) -> abq(X, Y).");
  ReportTable modes({"|D|", "oblivious facts", "restricted facts",
                     "oblivious ms", "restricted ms"});
  for (int n : {50, 200}) {
    Instance db;
    for (int i = 0; i < n; ++i) {
      Term c = Term::Constant("b" + std::to_string(i));
      db.Insert(Atom::Make("abp", {c}));
      if (i % 2 == 0) {
        db.Insert(Atom::Make("abq", {c, Term::Constant("w")}));
      }
    }
    ChaseOptions oblivious;
    ChaseOptions restricted = oblivious;
    restricted.restricted = true;
    Stopwatch w1;
    ChaseResult r1 = Chase(db, sigma, oblivious);
    double t1 = w1.ElapsedMs();
    Stopwatch w2;
    ChaseResult r2 = Chase(db, sigma, restricted);
    double t2 = w2.ElapsedMs();
    modes.AddRow({ReportTable::Cell(db.size()),
                  ReportTable::Cell(r1.instance.size()),
                  ReportTable::Cell(r2.instance.size()),
                  ReportTable::Cell(t1), ReportTable::Cell(t2)});
  }
  modes.Print("Ablation: oblivious vs restricted chase (restricted skips "
              "satisfied heads)");
}

}  // namespace
}  // namespace gqe

int main() {
  gqe::Run();
  return 0;
}

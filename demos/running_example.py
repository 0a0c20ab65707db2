"""Walk through the five-sequence worked example end to end.

Builds the database from text, prints the utility calculus step by step,
shows the index structures and bounds, then mines at xi=25%.

Run from the repository root after `pip install -e .`:

    python3 demos/running_example.py
"""

from hucsp.bounds import swu_per_item
from hucsp.core import db_utility
from hucsp.dataio import format_pattern, parse_database, serialize_results
from hucsp.indexes import build_initial_ichains, build_sil, sil_to_text
from hucsp.miner import MiningConfig, effective_search_rate, mine
from hucsp.oracle import (
    ending_positions,
    ieu_i_extension,
    ieu_s_extension,
    instance_utility,
    pattern_utility,
    q_sequence_utility,
    remaining_utility_after,
)

DB_TEXT = """\
b:2 f:4 -1 a:2 e:2 -1 c:2 e:1 -1 -2
a:1 -1 c:2 d:1 -1 a:1 b:1 e:2 -1 -2
b:2 f:2 -1 f:2 -1 a:3 d:1 -1 -2
d:1 -1 b:4 f:5 -1 c:1 e:2 -1 f:1 -1 -2
a:2 -1 a:1 c:3 -1 c:1 f:2 -1 b:1 -1 -2
"""

EUT_TEXT = """\
a 3
b 2
c 3
d 2
e 1
f 1
"""

db, eut = parse_database(DB_TEXT, EUT_TEXT)
A, B, C, D, E, F = range(6)

print("== the database ==")
for sid, seq in enumerate(db.sequences):
    print(f"  S{sid + 1}: u = {q_sequence_utility(seq, eut)}")
print(f"  total utility u(D) = {db_utility(db, eut)}")

print("\n== utility of <{a},{c}> ==")
s5 = db.sequences[4]
pattern = ((A,), (C,))
print(f"  ending positions in S5: {ending_positions(pattern, s5)}")
for pos in ending_positions(pattern, s5):
    print(f"  instance ending at {pos}: utility {instance_utility(pattern, pos, s5, eut)}")
print(f"  whole-database utility: {pattern_utility(pattern, db, eut)}")
print(f"  remaining utility after c at position 2 of S5: "
      f"{remaining_utility_after(s5, 2, C, eut)}")

print("\n== index structures ==")
sils = build_sil(db, eut)
print(f"  SIL of S1: {sil_to_text(sils[0], db.names)}")
initial = build_initial_ichains(sils)
chain_a = initial[A]
# Each element is (position, SIL slot, utility); print the (position, utility) pairs.
print("  IChain of <{a}>:", {f"S{il.sid + 1}": [(pos, u) for pos, _, u in il.elements]
                             for il in chain_a.lists})

print("\n== upper bounds ==")
swu = swu_per_item(db, eut)
print("  SWU:", {db.names[i]: swu[i] for i in sorted(swu)})
print(f"  IEU of the item-extension <{{ae}}>: {ieu_i_extension(((A,),), E, db, eut)}")
print(f"  IEU of the sequence-extension <{{a}},{{c}}>: {ieu_s_extension(((A,),), C, db, eut)}")

print("\n== mining at xi = 25% (minimum utility 26.5) ==")
results, stats = mine(db, eut, MiningConfig(xi="0.25"))
for pattern, utility in results:
    print(f"  {format_pattern(pattern, db.names)}  utility {utility}")
print(f"  candidates: {stats.candidates}, pruned by IEU: {stats.luip_pruned}, "
      f"effective search rate: {effective_search_rate(stats)}")

print("\n== results file content ==")
print(serialize_results(results, db.names), end="")

#!/usr/bin/env python3
"""One tracked episode, inside out.

Prints the exponential communication schedule, then runs a single episode
and shows the server's view at each communication instant: the evidence
statistic climbing against the moving threshold until the stop fires.
"""

from hetbai import CommSchedule, InstantLog, arm_stats, gen_overlap_instance, run_episode

lam = 0.5
sched = CommSchedule(lam)
print(f"communication instants for lambda = {lam}: {sched.instants(14)} ...")
print("consecutive ratios stay below 2 + lambda; rounds are the exponents "
      f"{[sched.round_exponent(t) for t in sched.instants(6)]}")

v = gen_overlap_instance(2, seed=3)
truth = arm_stats(v)
print(f"\ninstance: 5 clients, 5 arms, cyclic triples; true best arms "
      f"{[a + 1 for a in truth.best_arms]}")

trace: list[InstantLog] = []
record = run_episode(v, policy="het-ts", delta=0.01, lam=lam, seed=42, trace=trace)

print(f"\n{'t':>7}  {'evidence Z':>12}  {'threshold':>10}  decision")
for entry in trace:
    decision = "STOP" if entry.stopped else "continue"
    print(f"{entry.t:>7}  {entry.z:>12.2f}  {entry.beta:>10.2f}  {decision}")

print(f"\nstopped at t = {record.tau} (round {record.rounds}), "
      f"recommended {[a + 1 for a in record.recommendation]}, "
      f"correct = {record.correct}")

again = run_episode(v, policy="het-ts", delta=0.01, lam=lam, seed=42)
print(f"re-running with the same seed reproduces the record exactly: {again == record}")

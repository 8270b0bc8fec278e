"""dlb contract analyzer: the one static checker for the repo's determinism,
persistence, and concurrency contracts.

  atomic-write   file-creating writes must flow through util/tempfile's
                 temp+rename protocol (call-graph reachability to
                 temp_path_for from the enclosing function)
  sync-wrapper   no raw std:: synchronization primitives outside
                 util/sync.hpp, and every dlb::mutex data member must have a
                 DLB_GUARDED_BY field association
  rng-contract   no xoshiro construction, splitmix64 calls, or stream-
                 derivation constants outside util/rng.hpp
  nondet-reduce  no floating-point accumulation into by-reference captured
                 scalars inside lambdas handed to parallel_for/parallel_tasks
                 (use executor::parallel_reduce's ordered combine)
  clock          steady/system/high_resolution_clock, clock_gettime,
                 gettimeofday anywhere but util/timer.hpp
  unordered      std::unordered_{map,set,multimap,multiset}: iteration order
                 can silently order a report, a merge, or an aggregation
  raw-random     rand()/srand()/time()/clock()/std::random_device anywhere
                 but util/rng.hpp: randomness comes from the seeded streams
  ptr-key        std::map/std::set keyed on a pointer type: iteration order
                 is allocation order

frontend_lite (tokens + brace tree + function spans, no dependencies) fills
the facts model in model.py; rules.py checks it. A finding is suppressed
only by `// dlb-analyzer: allow(<rule>) <reason>` on its line or the line
above; an empty reason is itself a finding.

Run `python3 tools/dlb_analyzer --help` for the CLI.
"""

# record_bench.cmake - run and validate one recorded benchmark.
#
# Script mode (cmake -P), the one recorder behind bench/record_bench.sh and
# the CI bench smoke steps:
#
#   cmake -DBENCH=<sweep|adversarial|service|sharing> -DJSON=<out.json> \
#         [-DBUILD_DIR=<build tree>] [-DARGS=--scale=0.02] \
#         -P bench/record_bench.cmake
#
#   1. With BUILD_DIR (a configured build tree), build the row's target
#      there and run it (--out=JSON plus ARGS, a semicolon-separated flag
#      list; the row's default arguments when ARGS is empty). A failed
#      build or a nonzero exit fails the record. Without BUILD_DIR the
#      existing record at JSON is validated as it stands.
#
#   2. Validate the record against the bench's row of the table below:
#      every required key present, `bench` naming the binary, positive
#      counts, true correctness gates, floors and exact values met.
#      Wall-clock numbers are recorded but never gated: this box's timings
#      are too noisy for that, and correctness does not depend on them.
#
# Exits nonzero (FATAL_ERROR) on any schema violation or gate miss.

cmake_minimum_required(VERSION 3.19)

# The table, one row per bench. TARGET is the binary and the record's
# `bench` value. Keys are JSON paths with '.' between levels, so
# rows.0.policy also requires a non-empty rows array. KEYS must be
# present; POSITIVE must be > 0; GATES must be JSON true; MIN holds
# key>=floor pairs and EQUAL key=value pairs; SHOW is echoed on success.

# sweep: the one-pass lattice is bit-identical to per-config replay in
# every alternating pair of runs; each backend's time is the median of
# `repeats` runs, with its min and max, and the speedup their ratio.
set(sweep_TARGET sweep_onepass)
set(sweep_DEFAULT_ARGS --scale=0.1)
set(sweep_KEYS bench suite scale seed benchmarks configs_per_pass
  accesses_per_pass shared_misses all_hit_fraction threads repeats
  generate_ms per_config_ms per_config_ms_min per_config_ms_max one_pass_ms
  one_pass_ms_min one_pass_ms_max speedup equal)
set(sweep_POSITIVE accesses_per_pass configs_per_pass benchmarks repeats)
set(sweep_GATES equal)
set(sweep_SHOW configs_per_pass speedup)

# adversarial: some granularity degrades at least fivefold against a
# benign workload of equal length, or the suite stopped being adversarial.
set(adversarial_TARGET adversarial_degradation)
set(adversarial_DEFAULT_ARGS --scale=0.25)
set(adversarial_KEYS bench baseline scale seed accesses adversaries policies
  max_degradation max_adversary max_policy elapsed_ms rows)
set(adversarial_POSITIVE accesses adversaries policies)
set(adversarial_MIN max_degradation>=5.0)
set(adversarial_SHOW max_adversary max_policy max_degradation)

# service: the conservation identities held on every engine-stress row,
# every final-quiesce audit was clean, the dispatch table mirrored
# residency, every sustained-load job landed in exactly one terminal
# state; engine row 0 is the 1-thread baseline every speedup is against.
set(service_TARGET service_stress)
set(service_KEYS bench ops threads_max working_set capacity_bytes seed
  conservation_ok audit_clean dispatch_consistent accounted_ok
  engine_rows load_rows load_rows.0)
set(service_POSITIVE ops threads_max)
set(service_GATES conservation_ok audit_clean dispatch_consistent
  accounted_ok)
set(service_EQUAL engine_rows.0.threads=1)
set(service_SHOW threads_max)

# sharing: every run ended with SharedInstalls == UnshareUnlinks + live
# links, the disabled path stayed byte-inert, disjoint tenants never
# linked, identical tenants deduplicated to a smaller footprint; every
# row carries both sides of the comparison.
set(sharing_TARGET tenant_sharing)
set(sharing_KEYS bench tenants pressure scale seed conservation_ok
  disabled_silent_ok zero_overlap_inert_ok full_overlap_saves_ok
  max_saved_pct rows rows.0.overlap rows.0.policy rows.0.mode
  rows.0.inserted_off rows.0.inserted_on rows.0.shared_installs)
set(sharing_POSITIVE max_saved_pct)
set(sharing_GATES conservation_ok disabled_silent_ok zero_overlap_inert_ok
  full_overlap_saves_ok)
set(sharing_MIN tenants>=2)
set(sharing_SHOW tenants max_saved_pct)

if(NOT DEFINED ${BENCH}_TARGET)
  message(FATAL_ERROR "unknown bench '${BENCH}': pass "
                      "-DBENCH=<sweep|adversarial|service|sharing>")
endif()
if(NOT DEFINED JSON)
  message(FATAL_ERROR "pass -DJSON=<path to BENCH_${BENCH}.json>")
endif()
set(Target ${${BENCH}_TARGET})
get_filename_component(Name "${JSON}" NAME)

if(DEFINED BUILD_DIR)
  cmake_host_system_information(RESULT Cores QUERY NUMBER_OF_LOGICAL_CORES)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${BUILD_DIR}" --target ${Target}
            --parallel ${Cores}
    RESULT_VARIABLE BuildResult)
  if(NOT BuildResult EQUAL 0)
    message(FATAL_ERROR "building ${Target} failed")
  endif()
  set(Bin "${BUILD_DIR}/bench/${Target}")
  if(NOT ARGS)
    set(ARGS ${${BENCH}_DEFAULT_ARGS})
  endif()
  message(STATUS "running ${Bin} --out=${JSON} ${ARGS}")
  execute_process(COMMAND "${Bin}" "--out=${JSON}" ${ARGS}
                  RESULT_VARIABLE RunResult)
  if(NOT RunResult EQUAL 0)
    message(FATAL_ERROR "${Target} exited ${RunResult}")
  endif()
endif()

if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "no record at ${JSON}")
endif()
file(READ "${JSON}" Record)

# Sets <Out> to the value at the dotted JSON path <Key> (and <Out>_TYPE to
# its JSON type); a missing key fails the record.
function(record_get Out Key)
  string(REPLACE "." ";" Path "${Key}")
  string(JSON Value ERROR_VARIABLE Error GET "${Record}" ${Path})
  if(Error)
    message(FATAL_ERROR "${Name}: missing key '${Key}': ${Error}")
  endif()
  string(JSON Type TYPE "${Record}" ${Path})
  set(${Out} "${Value}" PARENT_SCOPE)
  set(${Out}_TYPE "${Type}" PARENT_SCOPE)
endfunction()

foreach(Key IN LISTS ${BENCH}_KEYS)
  record_get(Value ${Key})
endforeach()

foreach(Pair IN LISTS ${BENCH}_EQUAL ITEMS "bench=${Target}")
  string(REGEX MATCH "^([^=]+)=(.*)$" Match "${Pair}")
  set(Key "${CMAKE_MATCH_1}")
  set(Want "${CMAKE_MATCH_2}")
  record_get(Value ${Key})
  if(NOT Value STREQUAL Want AND NOT Value EQUAL Want)
    message(FATAL_ERROR "${Name}: ${Key} is '${Value}', expected '${Want}'")
  endif()
endforeach()

foreach(Key IN LISTS ${BENCH}_POSITIVE)
  record_get(Value ${Key})
  if(Value LESS_EQUAL 0)
    message(FATAL_ERROR "${Name}: ${Key}=${Value} must be positive")
  endif()
endforeach()

foreach(Gate IN LISTS ${BENCH}_GATES)
  record_get(Value ${Gate})
  # string(JSON) maps JSON true to ON.
  if(NOT Value_TYPE STREQUAL "BOOLEAN" OR NOT Value STREQUAL "ON")
    message(FATAL_ERROR "${Name}: gate ${Gate}=${Value}, expected true")
  endif()
endforeach()

foreach(Pair IN LISTS ${BENCH}_MIN)
  string(REGEX MATCH "^([^>]+)>=(.*)$" Match "${Pair}")
  set(Key "${CMAKE_MATCH_1}")
  set(Floor "${CMAKE_MATCH_2}")
  record_get(Value ${Key})
  if(Value LESS Floor)
    message(FATAL_ERROR "${Name}: ${Key}=${Value} is below the floor of "
                        "${Floor}")
  endif()
endforeach()

set(Summary "")
foreach(Key IN LISTS ${BENCH}_SHOW)
  record_get(Value ${Key})
  string(APPEND Summary " ${Key}=${Value}")
endforeach()
message(STATUS "${Name} ok:${Summary}; every gate held")

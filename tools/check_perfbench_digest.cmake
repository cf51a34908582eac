# Runs one perfbench workload at the smoke size and compares its `digest`
# line byte for byte with a golden file. The run must also exit 0 (its
# correctness checks passed).
#
#   cmake -DPERFBENCH=<stellar_perfbench> -DWORKLOAD=<name> -DGOLDEN=<file> \
#         -P check_perfbench_digest.cmake
#
# A declared behaviour change re-records the golden in the same diff:
#   stellar_perfbench --workload W --seed 1 --seconds 1 --setups 1 --trace 0 \
#     | grep '^digest ' > tests/golden/perfbench_W.digest
foreach(var PERFBENCH WORKLOAD GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_perfbench_digest: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${PERFBENCH} --workload ${WORKLOAD} --seed 1 --seconds 1 --setups 1 --trace 0
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "stellar_perfbench --workload ${WORKLOAD} exited with ${exit_code}\n"
                      "${output}${errors}")
endif()

string(REGEX MATCH "(^|\n)digest [^\n]*" actual "${output}")
string(STRIP "${actual}" actual)
file(READ "${GOLDEN}" expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "digest mismatch for ${WORKLOAD}\n"
                      "  expected: ${expected}\n"
                      "  actual:   ${actual}\n"
                      "(golden: ${GOLDEN})")
endif()
message(STATUS "${actual}")

# Runs one program and compares its standard output byte for byte with a
# golden file: the whole output (MODE=whole, the default) or only its
# `digest` line (MODE=digest). The run must also exit 0 (its own checks
# passed). Standard error is not compared.
#
#   cmake -DPROGRAM=<executable> [-DARGS="<arguments>"] -DGOLDEN=<file> \
#         [-DMODE=whole|digest] -P check_output.cmake
#
# A declared behaviour change re-records the golden in the same diff, from
# the build tree (the working directory of the ctests):
#   bench/fig9_scaling > ../tests/golden/fig9_scaling.out
#   tools/stellar_perfbench --workload W --seed 1 --seconds 1 --setups 1 --trace 0 \
#     | grep '^digest ' > ../tests/golden/perfbench_W.digest
foreach(var PROGRAM GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED MODE)
  set(MODE whole)
endif()
if(NOT MODE MATCHES "^(whole|digest)$")
  message(FATAL_ERROR "check_output: MODE must be whole or digest, not '${MODE}'")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${PROGRAM} ${args}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
get_filename_component(name ${PROGRAM} NAME)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS} exited with ${exit_code}\n${output}${errors}")
endif()

file(READ "${GOLDEN}" expected)
if(MODE STREQUAL "digest")
  string(REGEX MATCH "(^|\n)digest [^\n]*" actual "${output}")
  string(STRIP "${actual}" actual)
  string(STRIP "${expected}" expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "digest mismatch for ${name} ${ARGS}\n"
                        "  expected: ${expected}\n"
                        "  actual:   ${actual}\n"
                        "(golden: ${GOLDEN})")
  endif()
  message(STATUS "${actual}")
elseif(NOT output STREQUAL expected)
  get_filename_component(golden_name ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${golden_name}.actual)
  file(WRITE ${actual_file} "${output}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "output of ${name} ${ARGS} differs from ${GOLDEN} (diff above; "
                      "actual output kept in ${actual_file})")
endif()

# Run one bench for a flag-handling ctest entry (see CMakeLists.txt):
#   cmake -DBENCH=<binary> -DARGS="<args>" -DEXPECT_RC=<code>
#         -DWORK_DIR=<dir> -P run_bench_flag_test.cmake
# The bench runs in WORK_DIR, emptied first. The test fails unless it
# exits with EXPECT_RC and leaves no BENCH_*.json behind.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc STREQUAL "${EXPECT_RC}")
    message(FATAL_ERROR "${BENCH} ${ARGS}: exit code ${rc}, want ${EXPECT_RC}")
endif()
file(GLOB written "${WORK_DIR}/BENCH_*.json")
if(written)
    message(FATAL_ERROR "${BENCH} ${ARGS} wrote ${written}")
endif()

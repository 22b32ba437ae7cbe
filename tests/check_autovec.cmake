# ctest script: prove the "autovec" kernel flavour actually vectorizes.
#
# Recompiles src/simd/kernels_autovec.cpp exactly as the library does
# (-O3 -fno-math-errno) with the compiler's vectorization report turned on,
# then counts distinct vectorized source lines. The file holds 7 kernel
# families with >= 7 hot loops between them (analyze, synthesize interleave,
# magnitude, select re/im, average, and the lane-innermost loops of the
# lane-interleaved analyze+magnitude and select+synthesize kernels); if fewer
# than 7 loops vectorize, a refactor silently de-vectorized the flavour and
# this test fails.
#
# Invoked by CMakeLists.txt with:
#   -DCXX_COMPILER=...  -DCXX_COMPILER_ID=GNU|Clang
#   -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch>

set(src "${SOURCE_DIR}/src/simd/kernels_autovec.cpp")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(obj "${WORK_DIR}/kernels_autovec.o")

if(CXX_COMPILER_ID STREQUAL "GNU")
  set(report_flag "-fopt-info-vec-optimized")
  set(needle "loop vectorized")
elseif(CXX_COMPILER_ID MATCHES "Clang")
  set(report_flag "-Rpass=loop-vectorize")
  set(needle "vectorized loop")
else()
  message(STATUS "check_autovec: unknown compiler '${CXX_COMPILER_ID}', skipping")
  return()
endif()

execute_process(
  COMMAND "${CXX_COMPILER}" -std=c++17 -O3 -fno-math-errno "${report_flag}"
          -I "${SOURCE_DIR}" -c "${src}" -o "${obj}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_autovec: compile failed (${rc}):\n${err}")
endif()

# Vectorization remarks land on stderr for both compilers. Count unique
# file:line sites so an unrolled loop reported twice is not double-counted.
string(REPLACE "\n" ";" lines "${err}")
set(sites "")
foreach(line IN LISTS lines)
  if(line MATCHES "${needle}")
    string(REGEX MATCH "[^ :]+:[0-9]+:[0-9]+" site "${line}")
    if(site)
      list(APPEND sites "${site}")
    endif()
  endif()
endforeach()
list(REMOVE_DUPLICATES sites)
list(LENGTH sites count)

message(STATUS "check_autovec: ${count} vectorized loop site(s) in kernels_autovec.cpp")
foreach(site IN LISTS sites)
  message(STATUS "  ${site}")
endforeach()

if(count LESS 7)
  message(FATAL_ERROR
    "check_autovec: only ${count} loop(s) vectorized (need >= 7). "
    "Compiler report:\n${err}")
endif()

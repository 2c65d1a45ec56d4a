# Runs a bench's --smoke --dsan twice under deliberately different
# process layouts (malloc perturbation plus environment-block padding,
# which shifts the heap and the initial stack and with them every pointer
# value the run ever hashes) and requires byte-identical CSVs and tables.
# Any hash-order or address dependence in the simulation shows up as a
# diff here long before it corrupts a full figure sweep.
#
# --dsan adds the determinism sanitizer: every run folds its dispatched
# event stream (tick, seq, stage tag) into a rolling state hash, the
# binary reruns each config serially and fatals on the first diverging
# event window, and the per-run hashes land in
# results/<bench>_statehash.csv — compared across the two layouts below
# with the bench's own CSVs, so even a divergence that cancels out in the
# tables fails the test.
#
# Invoked by ctest as:
#   cmake -DBENCH=<binary> -DCSVS=<a.csv,b.csv,...> -DWORKDIR=<scratch>
#       [-DSHARDS=N] -P layout_determinism.cmake
#
# CSVS names the bench's result files under results/ (comma-separated);
# <bench>_statehash.csv is always compared as well.
#
# With SHARDS set, both runs execute on the parallel PDES kernel
# (`--shards N`, auto timing-domain partition). The dsan pass inside the
# binary then reruns every config on one shard, so a pass proves the
# sharded sweep reproduced the serial event stream exactly — on top of
# the cross-layout stability this test always checked.

if(NOT DEFINED SHARDS)
    set(SHARDS 0)
endif()
get_filename_component(name ${BENCH} NAME_WE)
string(REPLACE "," ";" csvs "${CSVS}")
list(APPEND csvs ${name}_statehash.csv)
set(flags --smoke --dsan)
if(SHARDS GREATER 0)
    list(APPEND flags --shards ${SHARDS})
endif()

foreach(side A B)
    file(REMOVE_RECURSE ${WORKDIR}/${side})
    file(MAKE_DIRECTORY ${WORKDIR}/${side}/results)
endforeach()

string(REPEAT "x" 4096 padding)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MALLOC_PERTURB_=1 SMARTDS_ENV_PAD=a
        ${BENCH} ${flags}
    WORKING_DIRECTORY ${WORKDIR}/A
    OUTPUT_FILE ${WORKDIR}/A/stdout.txt
    RESULT_VARIABLE rc_a)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MALLOC_PERTURB_=254
        SMARTDS_ENV_PAD=${padding} ${BENCH} ${flags}
    WORKING_DIRECTORY ${WORKDIR}/B
    OUTPUT_FILE ${WORKDIR}/B/stdout.txt
    RESULT_VARIABLE rc_b)
if(NOT rc_a EQUAL 0 OR NOT rc_b EQUAL 0)
    message(FATAL_ERROR "${name} --smoke failed (A=${rc_a} B=${rc_b})")
endif()

foreach(csv ${csvs})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/A/results/${csv} ${WORKDIR}/B/results/${csv}
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
            "results/${csv} differs across process layouts (or is "
            "missing): ${name} leaked hash order or address values into "
            "its results")
    endif()
endforeach()

# Stdout must match too, except the [bench_perf] telemetry line, which
# legitimately carries wall-clock timings.
foreach(side A B)
    file(READ ${WORKDIR}/${side}/stdout.txt out_${side})
    string(REGEX REPLACE "[^\n]*bench_perf[^\n]*\n?" "" out_${side}
           "${out_${side}}")
endforeach()
if(NOT out_A STREQUAL out_B)
    message(FATAL_ERROR
        "${name} --smoke stdout differs across process layouts")
endif()

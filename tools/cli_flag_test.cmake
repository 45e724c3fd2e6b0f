# Drives xfraud_cli with malformed numeric flags: each must be refused with
# "<cmd>: --<flag> expects ..." on stderr and exit code 1 — never an
# uncaught exception, never a silently truncated value ("4x" read as 4).
# dist-bench kill plans the cluster cannot recover from (a rank outside the
# world, any kill in a one-worker run) are refused the same way, on both
# transports, before any training starts.
#
#   cmake -DCLI=<path/to/xfraud_cli> -DOUT=<scratch file> -P cli_flag_test.cmake

function(expect_refused expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "xfraud_cli ${ARGN}: exit '${code}', want 1\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "xfraud_cli ${ARGN}: stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_refused("generate: --seed expects an integer"
               generate --out "${OUT}" --seed abc)
expect_refused("generate: --seed expects an integer"
               generate --out "${OUT}" --seed 4x)
expect_refused("serve-worker: --deadline-ms expects a number"
               serve-worker --cell "${OUT}" --endpoint unix:${OUT}.sock
               --deadline-ms 5ms)

# The dist-bench cases load a log first; generate a small one.
execute_process(COMMAND "${CLI}" generate --out "${OUT}.tsv" --scale small
                RESULT_VARIABLE code OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "xfraud_cli generate: exit '${code}'")
endif()
foreach(transport inproc socket)
  expect_refused("dist-bench: InvalidArgument: kill_worker needs at least 2 workers"
                 dist-bench --log "${OUT}.tsv" --transport ${transport}
                 --workers 1 --fault-plan kill_worker=0@0:0)
  expect_refused("dist-bench: InvalidArgument: kill_worker=5 names no rank of a 2-worker run"
                 dist-bench --log "${OUT}.tsv" --transport ${transport}
                 --workers 2 --fault-plan kill_worker=5@0:0)
endforeach()

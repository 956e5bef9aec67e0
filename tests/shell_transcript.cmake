# Pipes a fixture script into datacell_shell and diffs the transcript
# against a golden file. Wall-clock figures are masked first: the trailing
# ts column of every `[name] ...` result row and the times of \profile.
#
#   cmake -DSHELL=<datacell_shell> [-DSHARDS=N] -DSCRIPT=<fixture.sql>
#         -DGOLDEN=<file.golden> [-DRECORD=ON] -P shell_transcript.cmake
#
# RECORD=ON writes the masked transcript to GOLDEN instead of diffing.

set(args)
if(SHARDS)
  set(args --shards ${SHARDS})
endif()
execute_process(COMMAND ${SHELL} ${args}
                INPUT_FILE ${SCRIPT}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "datacell_shell exited with ${rc}:\n${out}")
endif()

# Consecutive rows share the newline between them, so repeat until every
# row is masked.
set(prev "")
while(NOT out STREQUAL prev)
  set(prev "${out}")
  string(REGEX REPLACE "\n(\\[[A-Za-z0-9_]+\\] [^\n]*),[0-9]+\n" "\n\\1,<ts>\n"
         out "${out}")
endwhile()
string(REGEX REPLACE "fires, [0-9.]+ ms total" "fires, <ms> ms total"
       out "${out}")
string(REGEX REPLACE " +[0-9.]+ (ns|us|ms) +[0-9.]+%" " <time> <pct>%"
       out "${out}")

if(RECORD)
  file(WRITE ${GOLDEN} "${out}")
  return()
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  get_filename_component(name ${GOLDEN} NAME)
  set(got ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${got} "${out}")
  execute_process(COMMAND diff -u ${GOLDEN} ${got})
  message(FATAL_ERROR "transcript differs from ${GOLDEN} (actual: ${got})")
endif()

package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzReadCheckpointFile feeds arbitrary bytes to the journal parser.
// It must never panic; a file it accepts must keep every intact entry
// line (the last one per key, by journal semantics); and the accepted
// file's canonical bytes must read back as a fixed point: canonical,
// nothing salvaged, the same entries.
// The seed corpus lives in testdata/fuzz/FuzzReadCheckpointFile, and
// plain `go test` replays it.
func FuzzReadCheckpointFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := parseCheckpoint("fuzz.json", data)
		if err != nil {
			return
		}
		want := map[int]checkpointEntry{}
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			for _, line := range bytes.Split(data[nl+1:], []byte{'\n'}) {
				if ent, ok := parseEntry(line); ok {
					want[ent.Key] = ent
				}
			}
		}
		if !reflect.DeepEqual(cf.entries, want) {
			t.Fatalf("parser kept %d entries, want every intact line (%d keys)", len(cf.entries), len(want))
		}

		canon := (&checkpoint{header: cf.header, entries: cf.entries}).canonicalBytes()
		again, err := parseCheckpoint("canonical.json", canon)
		if err != nil {
			t.Fatalf("canonical bytes of an accepted journal rejected: %v\n%q", err, canon)
		}
		if !again.canonical || again.salvaged != 0 {
			t.Fatalf("canonical bytes re-read as canonical=%v salvaged=%d\n%q", again.canonical, again.salvaged, canon)
		}
		if !reflect.DeepEqual(again.entries, cf.entries) {
			t.Fatalf("canonical bytes changed the entries\n%q", canon)
		}
	})
}

// FuzzParseShard feeds arbitrary strings to the -shard parser. Every
// input either errors, or yields a shard that passes Validate, is
// Enabled, and re-parses from its "index/of" spelling to the same
// value. The seed corpus lives in testdata/fuzz/FuzzParseShard.
func FuzzParseShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			return
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("ParseShard(%q) = %+v fails Validate: %v", s, sh, err)
		}
		if !sh.Enabled() {
			t.Fatalf("ParseShard(%q) = %+v restricts nothing", s, sh)
		}
		canon := fmt.Sprintf("%d/%d", sh.Index, sh.Of)
		if again, err := ParseShard(canon); err != nil || again != sh {
			t.Fatalf("ParseShard(%q) = %+v, but its spelling %q re-parses to %+v, %v", s, sh, canon, again, err)
		}
	})
}

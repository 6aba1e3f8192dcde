package search

import (
	"testing"

	"repro/internal/frontier"
)

func TestDefaults(t *testing.T) {
	c := Defaults()
	if c.ChunkWords != DefaultChunkWords {
		t.Errorf("ChunkWords = %d, want %d", c.ChunkWords, DefaultChunkWords)
	}
	if c.Wire != frontier.WireSparse {
		t.Errorf("default wire = %v, want sparse", c.Wire)
	}
}

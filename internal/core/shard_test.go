package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rpc"
	"repro/internal/wire"
)

func TestWrongShardErrorRoundTrip(t *testing.T) {
	ref := wire.ShardRef{ID: 2, Lo: "catalog/00010", Hi: "catalog/00020"}
	err := wrongShardError(ref)
	if !IsWrongShard(err) {
		t.Fatal("local wrong-shard error not recognized")
	}

	// The same error after an RPC hop: the wrap is gone, only the text
	// survives inside a RemoteError.
	remote := error(&rpc.RemoteError{Method: "m.write", Msg: err.Error()})
	if errors.Is(remote, ErrWrongShard) {
		t.Fatal("test setup: RemoteError should not wrap the sentinel")
	}
	if !IsWrongShard(remote) {
		t.Fatal("remote wrong-shard error not recognized from text")
	}
	if !strings.Contains(remote.Error(), ref.String()) {
		t.Fatalf("remote rejection %q does not name the range %s", remote, ref)
	}
}

func TestIsWrongShardRejectsOtherErrors(t *testing.T) {
	for _, err := range []error{
		nil,
		errors.New("core: denied"),
		fmt.Errorf("wrapped: %w", ErrDenied),
		&rpc.RemoteError{Method: "m.write", Msg: "core: denied: no such client"},
	} {
		if IsWrongShard(err) {
			t.Fatalf("IsWrongShard(%v) = true", err)
		}
	}
}

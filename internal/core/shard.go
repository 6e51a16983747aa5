package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// ErrWrongShard is returned by a master asked to write a key outside its
// group's range. A client holding a stale shard table reacts by re-reading
// the owner-signed table from the directory and re-sending; the range in
// the error text is for people reading logs, not for routing, since
// nothing signs it.
var ErrWrongShard = errors.New("core: wrong shard")

// wrongShardError builds the rejection a master sends for an
// out-of-range key. Application errors cross the RPC boundary as text
// (rpc.RemoteError), so the range travels as its String form.
func wrongShardError(authoritative wire.ShardRef) error {
	return fmt.Errorf("%w: key is outside this group's range; authoritative %s",
		ErrWrongShard, authoritative)
}

// IsWrongShard reports whether err is a wrong-shard rejection, locally
// generated or surfaced through an RPC as a remote error.
func IsWrongShard(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrWrongShard) {
		return true
	}
	return rpc.IsRemote(err) && strings.Contains(err.Error(), ErrWrongShard.Error())
}

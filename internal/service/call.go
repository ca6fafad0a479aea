package service

import (
	"context"
	"errors"
	"io"

	"fleet/internal/protocol"
)

// Op names one operation of the learning-task protocol on the wire.
type Op uint8

const (
	OpTask  Op = iota + 1 // TaskRequest in, TaskResponse out
	OpPush                // GradientPush in, PushAck out
	OpStats               // nothing in, Stats out
)

// Call is the one wire endpoint every transport serves through: decode the
// request body with the negotiated codec, call svc under ctx (which carries
// the caller's Credentials, when the transport attached any), and encode
// the reply into out. A transport owns only its envelope — routes, headers
// and status codes, or frames and correlation IDs — and its size limit.
//
// A push's gradient arrays are decoded into recycled storage
// (protocol.Lend) that goes back when Call returns: svc only borrows them
// (see Service.PushGradient).
//
// A body that fails to decode is the caller's fault (invalid_argument)
// unless the failure is already structured: a transport's size limit or the
// codec's decompression cap surface as payload_too_large. Nothing is
// written to out unless the service call succeeded.
func Call(ctx context.Context, svc Service, op Op, codec protocol.Codec, body io.Reader, out io.Writer) error {
	var (
		reply interface{}
		err   error
	)
	switch op {
	case OpTask:
		var req protocol.TaskRequest
		if err := codec.Decode(body, &req); err != nil {
			return decodeError(err)
		}
		reply, err = svc.RequestTask(ctx, &req)
	case OpPush:
		var push protocol.GradientPush
		var loan *protocol.Loan
		if loan, err = protocol.Lend(codec, body, &push); err != nil {
			return decodeError(err)
		}
		defer loan.Release()
		reply, err = svc.PushGradient(ctx, &push)
	case OpStats:
		reply, err = svc.Stats(ctx)
	default:
		return protocol.Errorf(protocol.CodeInvalidArgument, "unknown operation %d", op)
	}
	if err != nil {
		return err
	}
	return codec.Encode(out, reply)
}

func decodeError(err error) error {
	var pe *protocol.Error
	if errors.As(err, &pe) {
		return pe
	}
	return protocol.Errorf(protocol.CodeInvalidArgument, "undecodable request body: %v", err)
}

// Package cli gives a command whose run function parses flags with
// flag.ContinueOnError, so tests can call it, flag.ExitOnError's exits: 0
// after -h, 2 after a bad flag, each printed once; 1 after any other error.
// WriteFile writes a command's output file.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// usageError is a flag error its FlagSet has already printed.
type usageError struct{ error }

// Parse is fs.Parse with a bad flag's error marked for Status.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// Status returns the exit status for err, what the command name's run
// returned, and prints err to w unless its FlagSet already has, prefixed
// with "name: " unless its message already begins so.
func Status(name string, err error, w io.Writer) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, name+": ") {
		msg = name + ": " + msg
	}
	fmt.Fprintln(w, msg)
	return 1
}

// WriteFile creates the file at path, fills it with write and closes it,
// whether write fails or not.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

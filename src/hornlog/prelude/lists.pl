% List basics used throughout the prelude.

member(X,[X|_]).
member(X,[_|Xs]):-member(X,Xs).

append([],Ys,Ys).
append([X|Xs],Ys,[X|Zs]):-append(Xs,Ys,Zs).

% length(Xs,N): with N bound, Xs is a list of N elements, answered once;
% otherwise N counts Xs, and an open Xs gets ever longer lists.

length(Xs,N):-nonvar(N),!,length_of(N,Xs).
length(Xs,N):-length_count(Xs,N).

length_of(0,Xs):-!,Xs=[].
length_of(N,[_|Xs]):-N>0,M is N-1,length_of(M,Xs).

length_count([],0).
length_count([_|Xs],N):-length_count(Xs,M),N is M+1.

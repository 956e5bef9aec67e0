select count(*), sum(y), min(x), max(x) from [select * from s] as p where p.x > 2 window size 4 slide 2
